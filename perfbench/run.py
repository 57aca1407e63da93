#!/usr/bin/env python3
"""khlee benchmark: one workload, one seed, a closed loop over its inputs.

    python3 perfbench/run.py --workload scan-braids --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports ``khlee`` from its
``src`` directory.  A single process calls the library in-process, one input
after another (each starts when the previous one returns), in passes over
the workload's inputs until ``--seconds`` is used up.  A fixed reference
loop (``reference.py``) runs before every input, and every reported time is
scaled to the loop's nominal speed.  Outputs are checked against an untimed
oracle after the timed passes.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (counted
in inputs, so they depend only on the seed) and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Spans of a traced run are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def import_khlee():
    """Import khlee from this checkout's sources, never from elsewhere."""
    if not (SRC / "khlee" / "__init__.py").is_file():
        sys.exit(f"run.py: no khlee sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import khlee

    if Path(khlee.__file__).resolve().parent != SRC / "khlee":
        sys.exit(f"run.py: imported khlee from {khlee.__file__}, not from {SRC}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["scan-braids", "pd-brute", "kh-module"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import khlee, generate the inputs and exit (timed by the parent)")
    return ap.parse_args(argv)


def measure_setup(args, ref) -> float:
    """Median wall time of fresh processes that start the interpreter,
    import khlee and generate the inputs.  The reference loop runs before
    each of them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        ref.run()
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Failure:
    """An input whose call raised; compares unequal to every value."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def __repr__(self):
        return f"{self.kind}: {self.message}"


def run_passes(items, seconds, call, ref=None):
    """Closed-loop passes over the items: the first pass is always complete,
    later ones stop at the first input that ends after ``seconds``.  The
    reference loop, if given, runs untimed before each input.  Returns per
    input its list of times and its list of outputs."""
    times = [[] for _ in items]
    outputs = [[] for _ in items]
    start = time.perf_counter()
    while True:
        for idx, item in enumerate(items):
            if ref is not None:
                ref.run()
            t0 = time.perf_counter()
            try:
                out = call(idx, item.run)
            except Exception as exc:  # a failed input is counted, not fatal
                out = Failure(exc)
            t1 = time.perf_counter()
            times[idx].append(t1 - t0)
            outputs[idx].append(out)
            # the first pass is complete once the last input has run
            if times[-1] and t1 - start >= seconds:
                return times, outputs


def check_outputs(items, outputs):
    """Compare every output with the oracle.  Returns (failed attempts,
    failed inputs, report lines, correct): an exception or a wrong value is a
    failure, and a wrong value or an oracle that cannot run makes the run
    incorrect."""
    failed, failed_inputs, lines, correct = 0, 0, [], True
    for item, outs in zip(items, outputs):
        try:
            expected = item.expect()
        except Exception as exc:
            expected = Failure(exc)
            lines.append(f"ORACLE ERROR {item.name}: {expected!r}")
            correct = False
        bad = [got for got in outs
               if isinstance(got, Failure) or isinstance(expected, Failure) or got != expected]
        if not bad:
            continue
        failed += len(bad)
        failed_inputs += 1
        got = bad[0]
        if isinstance(got, Failure):
            lines.append(f"FAILED {item.name}: {got!r}")
        else:
            correct = False
            lines.append(f"WRONG {item.name}: got {got!r}, expected {expected!r}")
    return failed, failed_inputs, lines, correct


def tail(values):
    """The highest percentile with TAIL_BEYOND samples above it, as
    (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_input_medians(times):
    return [statistics.median(t) for t in times]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_khlee()
    from reference import NOMINAL_S, Reference
    from workloads import WORKLOADS

    make_inputs, make_items = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    if args.setup_only:
        return 0
    ref = Reference()
    raw_setup_s = measure_setup(args, ref)
    items = make_items(inputs)

    budget = args.seconds / 2 if args.trace else args.seconds
    times, outputs = run_passes(items, budget, lambda i, fn: fn(), ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_times, traced_outputs = run_passes(items, budget, tracer.run_item, ref)
        finally:
            tracer.uninstall()
        outputs = [a + b for a, b in zip(outputs, traced_outputs)]

    t0 = time.perf_counter()
    failed_calls, failed_inputs, check_lines, correct = check_outputs(items, outputs)
    oracle_s = time.perf_counter() - t0
    calls = sum(len(outs) for outs in outputs)

    # every time in the JSON is scaled to the reference loop's nominal speed
    scale = ref.scale()
    raw_medians = per_input_medians(times)
    raw_wall_s = sum(raw_medians)
    medians = [scale * t for t in raw_medians]
    setup_s, wall_s = scale * raw_setup_s, scale * raw_wall_s
    item_tail_s, tail_pct = tail(medians)
    lines = [
        f"workload {args.workload} seed {args.seed}: {len(items)} inputs, "
        f"{sum(map(len, times))} untraced calls in {budget:g} s",
        f"reference loop {1000 * ref.mean_s():.2f} ms (mean of {len(ref.samples)}); times below "
        f"are scaled by {scale:.4f} to its nominal {1000 * NOMINAL_S:g} ms",
        f"setup_s      {setup_s:.4f} s  (median of {SETUP_PROBES} start-ups; {raw_setup_s:.4f} s unscaled)",
        f"wall_s       {wall_s:.4f} s  (sum of per-input medians over "
        f"{min(map(len, times))}-{max(map(len, times))} calls each; {raw_wall_s:.4f} s unscaled)",
        f"item_p50_s   {statistics.median(medians):.4f} s  (of {len(medians)} per-input medians)",
        f"item_tail_s  {item_tail_s:.4f} s  (p{tail_pct:.1f} of {len(medians)} per-input medians)",
        f"failed_frac  {failed_inputs / len(items):.4f}  ({failed_inputs} of {len(items)} inputs; "
        f"{failed_calls} of {calls} calls)",
        f"peak_rss_mb  {peak_rss_mb:.1f} MB",
        f"(untimed oracle checks took {oracle_s:.1f} s)",
    ]
    lines += check_lines

    if tracer is None:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall_s, "s"),
            "item_p50_s": metric(statistics.median(medians), "s"),
            "item_tail_s": metric(item_tail_s, "s"),
            "ok_frac": metric(1 - failed_inputs / len(items), "frac"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        metrics, layer_lines = layer_metrics(tracer, traced_times, wall_s, ref)
        lines += layer_lines
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    print("\n".join(lines))
    # attempted and failed count inputs, not calls: the outcome of an input
    # depends only on the seed, the number of passes on the machine's speed
    print(json.dumps({"correct": correct, "attempted": len(items), "failed": failed_inputs,
                      "metrics": metrics}))
    return 0


def layer_metrics(tracer, traced_times, untraced_wall, ref):
    """Per-pass per-layer numbers from the traced calls: for each input the
    mean over its calls, summed over the inputs.  Times are scaled to the
    reference loop's nominal speed, like ``untraced_wall``."""
    from spans import ITEM_SPAN, LAYER_COUNTS, LAYER_TIMES

    scale = ref.scale()
    calls = [len(t) for t in traced_times]
    self_t = tracer.self_times()

    def per_pass(names):
        return scale * sum((v / calls[item] for (name, item), v in self_t.items() if name in names), 0.0)

    traced_wall = scale * sum(per_input_medians(traced_times))
    mean_wall = scale * sum(sum(t) / len(t) for t in traced_times)
    metrics, lines = {}, []
    covered = 0.0
    for name, spans in LAYER_TIMES.items():
        value = per_pass(spans)
        covered += value
        metrics[name] = metric(value, "s")
        lines.append(f"{name:24s} {value:10.4f} s   {100 * value / mean_wall:5.1f}% of traced wall")
    for name in LAYER_COUNTS:
        value = sum((c[name] / calls[item] for item, c in tracer.counts.items()), 0.0)
        metrics[name] = metric(value, "count")
        lines.append(f"{name:24s} {value:10.1f}")
    gens_in = metrics["reduction.gens_in"]["value"]
    kept = metrics["reduction.gens_out"]["value"] / gens_in if gens_in else 0.0
    metrics["reduction.kept_ratio"] = metric(kept, "ratio")
    unattributed = per_pass({ITEM_SPAN})
    metrics["bench.unattributed_s"] = metric(unattributed, "s")
    metrics["trace.covered_frac"] = metric(covered / mean_wall, "frac")
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    metrics["bench.ref_s"] = metric(ref.mean_s(), "s")
    lines += [
        f"reduction.kept_ratio     {kept:10.4f}",
        f"bench.unattributed_s     {unattributed:10.4f} s",
        f"trace.covered_frac       {covered / mean_wall:10.4f}  (layer self time / traced wall)",
        f"trace.wall_s             {traced_wall:10.4f} s  (wall_s of {sum(calls)} traced calls)",
        f"trace.overhead_s         {traced_wall - untraced_wall:10.4f} s  (traced - untraced wall_s)",
        f"bench.ref_s              {ref.mean_s():10.4f} s  (reference loop, unscaled)",
    ]
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
