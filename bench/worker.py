"""One workload in one fresh interpreter; started by run.py.

Prints ``ready`` once imports, input generation and warm-up are done (the
parent times set-up up to that line).  It then runs the op list once with
no checks and takes the peak RSS there, so the checks' own arrays do not
count; then it prepares the check references, measures whole rounds of the
op list until ``--seconds`` would be exceeded and prints one JSON result
line.  With ``--trace 1`` untraced and traced rounds alternate, so the
tracing overhead is measured in the same process.

Each op's latency is its best time over the rounds, and ``wall_s`` is
their sum.  On a shared 2-vCPU virtual machine the same code switches
between a fast and an up to 1.9x slower speed every few tens of
milliseconds, in a mix that drifts over minutes, so a mean or median over
rounds follows the mix.  The best of many short samples does not: a pure
Python loop of 28 ms had its mean drift 23-29 ms between 30-second
windows while its best stayed at 14.9-15.3 ms.  The ops are therefore
kept short (a few to about a hundred milliseconds) and a round well under
a second, so every op is sampled dozens of times in a run.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tracer import Recorder
from workloads import WORKLOADS

# internal counters that only feed the ratio below
_FILL_PARTS = ("maximal.stream.steps", "maximal.stream.coeff_steps")

MAX_REPORTED_FAILURES = 5
# checks cost about as much as the op itself on some workloads; checking
# every round would halve the samples each op's best time is taken from
CHECK_EVERY = 4


def checked_round(r: int) -> bool:
    """Rounds whose outputs are checked: the first two (a first call and a
    repeat, where a cache would first be hit) and then every CHECK_EVERY-th."""
    return r < 2 or r % CHECK_EVERY == 0


def run_rounds(
    workload: Any,
    seconds: float,
    trace: bool = False,
    log: Callable[[str], None] = lambda msg: print(msg, file=sys.stderr),
) -> dict[str, Any]:
    """Run whole rounds of the op list, checking the outputs of some rounds
    (see ``checked_round``); an op that raises fails in any round."""
    ops = workload.ops()
    untraced_walls: list[float] = []
    op_rounds: list[list[float]] = []
    traced: list[dict[str, float]] = []
    best: Recorder | None = None  # keeps the spans of the fastest traced round only
    best_wall = float("inf")
    attempted = failed = 0
    begin = time.perf_counter()
    r = 0
    while True:
        tracing = trace and len(untraced_walls) > len(traced)
        checking = checked_round(r)
        if tracing:
            rec = Recorder()
            rec.install()
        round_start = time.perf_counter()
        wall = 0.0
        times = []
        try:
            for k, op in enumerate(ops):
                problem = None
                t0 = time.perf_counter()
                try:
                    out = rec.run_op(k, op.label, op.run) if tracing else op.run()
                except Exception:
                    problem = "raised:\n" + traceback.format_exc()
                dt = time.perf_counter() - t0
                if problem is None and checking:
                    try:
                        problem = op.check(out)
                    except Exception:
                        problem = "check raised:\n" + traceback.format_exc()
                out = None  # the next op runs without this one's output alive
                if tracing:
                    rec.counts.update(op.counts)
                if checking or problem:
                    attempted += 1
                if problem:
                    failed += 1
                    if failed <= MAX_REPORTED_FAILURES:
                        log(f"FAILED {workload.name} {op.label}: {problem}")
                wall += dt
                times.append(dt)
        finally:
            if tracing:
                rec.uninstall()
        if tracing:
            traced.append({**rec.summarize(), **rec.counts})
            if traced[-1]["trace.wall_s"] < best_wall:
                best, best_wall = rec, traced[-1]["trace.wall_s"]
        else:
            untraced_walls.append(wall)
            op_rounds.append(times)
        r += 1
        elapsed = time.perf_counter() - begin
        last = time.perf_counter() - round_start
        if elapsed + last > seconds and (not trace or traced):
            break
    result: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "rounds": len(op_rounds),
        "checked_rounds": sum(1 for i in range(r) if checked_round(i)),
        "op_best_s": [min(ts) for ts in zip(*op_rounds)],
    }
    result["wall_s"] = sum(result["op_best_s"])
    if trace:
        result["per_layer"] = _per_layer(traced, min(untraced_walls))
        result["traced_rounds"] = len(traced)
        result["counts_repeat"] = _counts_repeat(traced)
        result["recorder"] = best
    return result


def peak_rss_round(workload: Any) -> float:
    """Run the op list once, unchecked; peak RSS of the process in MiB."""
    for op in workload.ops():
        op.run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_layer(rounds: list[dict[str, float]], untraced_wall: float) -> dict[str, float]:
    """Metrics of the fastest traced round, whose self times add up to its wall."""
    best = min(rounds, key=lambda r: r["trace.wall_s"])
    out = {k: v for k, v in best.items() if k not in _FILL_PARTS}
    steps, coeff_steps = (best.get(k, 0) for k in _FILL_PARTS)
    out["maximal.stream.spectral_fill"] = coeff_steps / steps if steps else 0.0
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out


def _counts_repeat(rounds: list[dict[str, float]]) -> bool:
    """Work counts (integers) must be identical in every traced round."""
    counts = [{k: v for k, v in r.items() if isinstance(v, int)} for r in rounds]
    return all(c == counts[0] for c in counts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.tiny, Path(args.workdir))
    workload.warm()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    peak_rss_mb = peak_rss_round(workload)
    workload.prepare_checks()
    result = run_rounds(workload, args.seconds, bool(args.trace))
    result["peak_rss_mb"] = peak_rss_mb
    rec = result.pop("recorder", None)
    if rec is not None and args.trace_out:
        rec.write_jsonl(args.trace_out)
    result["numpy"] = np.__version__
    result["python"] = platform.python_version()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
