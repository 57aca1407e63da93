import json

import pytest

from khlee.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_s_builtin(capsys):
    code, out, _ = run(capsys, "s", "--builtin", "trefoil+", "--no-meta")
    assert code == 0
    data = json.loads(out)
    assert data["s"] == 2
    assert data["s_minus"] == 2 and data["s_plus"] == 2


def test_s_braid_inline(capsys):
    code, out, _ = run(capsys, "s", "--braid", "braid 3 udu: -1 2 e1",
                       "--no-meta", "--engine", "scan")
    assert code == 0
    assert json.loads(out)["s"] == 0


def test_s_pd_inline(capsys):
    code, out, _ = run(capsys, "s", "--pd",
                       "PD[X(4,2,5,1), X(8,6,1,5), X(6,3,7,4), X(2,7,3,8)]",
                       "--no-meta")
    assert code == 0
    assert json.loads(out)["s"] == 0


def test_kh_command(capsys):
    code, out, _ = run(capsys, "kh", "--builtin", "trefoil+", "--no-meta")
    data = json.loads(out)
    assert data["module"]["free"] == [[0, 1], [0, 3]]
    assert data["module"]["torsion"] == [[3, 9, 1]]
    assert data["kh_dims_t0"]["0,1"] == 1


def test_lee_command(capsys):
    code, out, _ = run(capsys, "lee", "--builtin", "hopf+", "--no-meta")
    data = json.loads(out)
    assert data["lee_dims_t1"] == {"0": 2, "2": 2}
    assert len(data["generator_filtration_levels"]) == 2


def test_ssr_s_command(capsys):
    code, out, _ = run(capsys, "ssr-s", "--builtin", "Wh+", "--no-meta")
    data = json.loads(out)
    assert data["s_minus"] == 0 and data["s_plus"] == 2


def test_stab_command(capsys):
    code, out, _ = run(capsys, "stab", "--builtin", "F_1", "--kmax", "2", "--no-meta")
    data = json.loads(out)
    assert data["stabilized"] is True
    assert [row["s"] for row in data["sweep"]] == [-1, -1]


def test_ssr_json_input(capsys, tmp_path):
    spec = {"strands": 3, "orient": "udu", "braid": [-1, 2, "e1"],
            "handles": [[2, 3, 0]]}
    path = tmp_path / "wh.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "ssr-s", "--ssr", str(path), "--no-meta")
    data = json.loads(out)
    assert data["s_minus"] == 0 and data["s_plus"] == 2


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "s", "--builtin", "figure8", "--no-meta")
    _, out2, _ = run(capsys, "s", "--builtin", "figure8", "--no-meta")
    assert out1 == out2


def test_engine_both_oracle_mode(capsys):
    code, out, _ = run(capsys, "kh", "--builtin", "trefoil+", "--engine", "both",
                       "--no-meta")
    assert code == 0


def test_error_json_and_exit_code(capsys):
    code, out, err = run(capsys, "s", "--builtin", "no-such-link", "--no-meta")
    assert code == 2
    data = json.loads(err)
    assert data["error"] == "ParseError"


def test_limit_flag(capsys):
    code, out, err = run(capsys, "s", "--builtin", "trefoil+", "--engine", "brute",
                         "--limit", "4", "--no-meta")
    assert code == 2
    assert json.loads(err)["error"] == "ResourceLimit"


def test_table_output(capsys):
    code, out, _ = run(capsys, "s", "--builtin", "unknot", "--table", "--no-meta")
    assert code == 0
    assert "s: 0" in out


def test_s_engine_both_cross_checks(capsys):
    # brute and scan agree, and the brute report is the output
    code, out, _ = run(capsys, "s", "--builtin", "trefoil+", "--engine", "both", "--no-meta")
    assert code == 0
    _, brute, _ = run(capsys, "s", "--builtin", "trefoil+", "--engine", "brute", "--no-meta")
    assert out == brute
    code, out, _ = run(capsys, "s", "--braid", "braid 3 udu: -1 2 e1", "--engine", "both",
                       "--no-meta")
    assert code == 0 and json.loads(out)["s"] == 0
    code, out, _ = run(capsys, "s", "--builtin", "hopf+", "--all-orientations",
                       "--engine", "both", "--no-meta")
    assert code == 0
    assert [r["s"] for r in json.loads(out)["reports"]] == [1, -1]
    # PD input has no braid to scan: brute alone
    code, out, _ = run(capsys, "s", "--pd", "PD[X(1,5,2,4), X(3,1,4,6), X(5,3,6,2)]",
                       "--engine", "both", "--no-meta")
    assert code == 0


def test_s_engine_both_names_a_disagreement(capsys, monkeypatch):
    from dataclasses import replace

    from khlee import cli

    s_invariant = cli.s_invariant

    def off_by_two_scan(d, orientation=None, engine="auto", **kwargs):
        rep = s_invariant(d, orientation, engine=engine, **kwargs)
        return replace(rep, s_plus=rep.s_plus + 2) if engine == "scan" else rep

    monkeypatch.setattr(cli, "s_invariant", off_by_two_scan)
    code, _, err = run(capsys, "s", "--builtin", "trefoil+", "--engine", "both", "--no-meta")
    assert code == 2
    data = json.loads(err)
    assert data["error"] == "KhleeError"
    assert "brute (2, 1, 3, 2, 2), scan (2, 1, 3, 2, 4)" in data["message"]
