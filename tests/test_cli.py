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


@pytest.mark.parametrize("argv, message", [
    (("s", "--braid", "braid x: 1"), "bad strand count 'x'"),
    (("s", "--braid", "braid 2: a"), "bad braid letter 'a'"),
    (("s", "--braid", "braid 2: e"), "bad braid letter 'e'"),
    (("ssr-s", "--ssr", '{"strands": 2,'), "SSr input is not valid JSON"),
    (("ssr-s", "--ssr", '{"orient": "ud", "braid": [1, 1]}'),
     'SSr JSON must be an object with a "strands" count'),
    (("ssr-s", "--ssr", '{"strands": 2.5, "orient": "ud", "braid": [1, 1]}'),
     "bad strand count 2.5"),
    (("ssr-s", "--ssr", '{"strands": 2, "braid": [1, 1], "handles": [[1, 2, 0, 1]]}'),
     "handle [1, 2, 0, 1] must be [a, b, pos] with integer entries"),
    (("ssr-s", "--ssr", '{"strands": 2, "orient": "ud", "braid": ["x1", 1, 1]}'),
     "bad braid letter 'x1'"),
    (("ssr-s", "--ssr", '{"strands": 2, "braid": [["e", "x"]]}'),
     "bad braid letter ['e', 'x']"),
], ids=["braid-strands", "braid-letter", "braid-bare-e", "ssr-invalid-json",
        "ssr-no-strands", "ssr-float-strands", "ssr-bad-handle", "ssr-string-letter",
        "ssr-pair-letter"])
def test_malformed_input_is_a_parse_error(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--no-meta")
    assert code == 2 and out == ""
    data = json.loads(err)
    assert data["error"] == "ParseError"
    assert message in data["message"]


def test_malformed_limit_environment_is_a_parse_error(capsys, monkeypatch):
    monkeypatch.setenv("KHLEE_LIMIT", "abc")
    code, out, err = run(capsys, "s", "--builtin", "trefoil+", "--no-meta")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ParseError",
                               "message": "KHLEE_LIMIT must be an integer, not 'abc'"}


def test_limit_flag(capsys):
    code, out, err = run(capsys, "s", "--builtin", "trefoil+", "--engine", "brute",
                         "--limit", "4", "--no-meta")
    assert code == 2
    assert json.loads(err)["error"] == "ResourceLimit"


@pytest.mark.parametrize("flag, env, message", [
    ("0", None, "--limit must be a positive integer, not 0"),
    ("-3", None, "--limit must be a positive integer, not -3"),
    (None, "0", "KHLEE_LIMIT must be a positive integer, not '0'"),
], ids=["flag-0", "flag-minus-3", "env-0"])
def test_non_positive_limit_is_a_parse_error(capsys, monkeypatch, flag, env, message):
    # the scanner's object cap has a floor, so without the check the scan
    # engine would ignore such a limit
    if env is not None:
        monkeypatch.setenv("KHLEE_LIMIT", env)
    argv = ("--limit", flag) if flag is not None else ()
    code, out, err = run(capsys, "s", "--builtin", "trefoil+", *argv, "--no-meta")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ParseError", "message": message}


def test_orientation_with_all_orientations_is_a_parse_error(capsys):
    code, out, err = run(capsys, "s", "--builtin", "hopf+", "--orientation", "+-",
                         "--all-orientations", "--no-meta")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ParseError", "message":
                               "--orientation and --all-orientations exclude each other"}


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


def _off_by_two_scan_levels(monkeypatch):
    """Make the scan engine report every filtration level two too high."""
    from khlee import lee

    scan_levels = lee.scan_levels

    def off_by_two(dd, chain, **kwargs):
        levels, summary = scan_levels(dd, chain, **kwargs)
        return tuple(x + 2 for x in levels), summary

    monkeypatch.setattr(lee, "scan_levels", off_by_two)


def test_s_engine_both_names_a_disagreement(capsys, monkeypatch):
    _off_by_two_scan_levels(monkeypatch)
    code, _, err = run(capsys, "s", "--builtin", "trefoil+", "--engine", "both", "--no-meta")
    assert code == 2
    data = json.loads(err)
    assert data["error"] == "KhleeError"
    assert "brute (1, 1, 1, 3), scan (3, 3, 3, 5)" in data["message"]


BOTH_COMMANDS = [
    ("kh", "--builtin", "figure8"),
    ("lee", "--builtin", "hopf+"),
    ("ssr-s", "--builtin", "Wh+"),
    ("stab", "--builtin", "F_1", "--kmax", "3"),
]


@pytest.mark.parametrize("argv", BOTH_COMMANDS, ids=lambda a: a[0])
def test_engine_both_agrees_with_brute(capsys, argv):
    code, out, _ = run(capsys, *argv, "--engine", "both", "--no-meta")
    assert code == 0
    _, brute, _ = run(capsys, *argv, "--engine", "brute", "--no-meta")
    assert out == brute


@pytest.mark.parametrize("argv", BOTH_COMMANDS[1:], ids=lambda a: a[0])
def test_engine_both_names_a_level_disagreement(capsys, monkeypatch, argv):
    _off_by_two_scan_levels(monkeypatch)
    code, _, err = run(capsys, *argv, "--engine", "both", "--no-meta")
    assert code == 2
    message = json.loads(err)["message"]
    assert "brute and scan disagree on the levels" in message
    brute = message.rsplit("brute (", 1)[1].split(")", 1)[0]
    scan = message.rsplit("scan (", 1)[1].split(")", 1)[0]
    assert [int(x) + 2 for x in brute.split(", ")] == [int(x) for x in scan.split(", ")]


def test_kh_engine_both_names_a_module_disagreement(capsys, monkeypatch):
    from khlee import lee

    scan_complex = lee.scan_complex
    monkeypatch.setattr(lee, "scan_complex", lambda d, **kw: scan_complex(d.mirror(), **kw))
    code, _, err = run(capsys, "kh", "--builtin", "trefoil+", "--engine", "both", "--no-meta")
    assert code == 2
    message = json.loads(err)["message"]
    assert ("the Q[t]-module: brute HomologySummary(free=[(0, 1), (0, 3)], "
            "torsion=[(3, 9, 1)]), scan HomologySummary(free=[(0, -3), (0, -1)]") in message


def test_engine_choices(capsys):
    # reduced was brute's cube plus the elimination kernel, which brute now is
    with pytest.raises(SystemExit) as exc:
        main(["s", "--builtin", "trefoil+", "--engine", "reduced"])
    assert exc.value.code == 2
    assert "invalid choice: 'reduced'" in capsys.readouterr().err
    # verify runs fixed suites and takes no diagram or engine
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "oracle", "--engine", "scan"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine scan" in capsys.readouterr().err
    # scan needs a braid, on every command
    pd = "PD[X(1,5,2,4), X(3,1,4,6), X(5,3,6,2)]"
    for command in ("s", "kh", "lee"):
        code, _, err = run(capsys, command, "--pd", pd, "--engine", "scan", "--no-meta")
        assert code == 2
        assert "needs a braid" in json.loads(err)["message"]
