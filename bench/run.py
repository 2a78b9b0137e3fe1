"""Benchmark for the vilenkin package: four workloads, each in fresh processes.

Run from the repository root:

    python3 bench/run.py --workload atom-maximal --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each run times set-up in several fresh interpreters before and after the
measured one (``setup_s`` is their median).  The measured interpreter
runs whole rounds of the workload's fixed op list for ``--seconds`` and
checks the ops' outputs outside the timed region in the first two rounds
and every fourth after.  An op's latency is its best time over the rounds
(see worker.py for why); ``wall_s`` sums them over the op list and
``op_p50_ms`` / ``op_p90_ms`` are percentiles over the ops.  ``attempted``
counts the checked ops and any op that raised; those that raised or
failed their check are counted in ``failed`` and printed as
``fail_ratio``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the fastest traced round, whose spans are written to
``.bench_work/trace-<workload>.jsonl``.

BLAS and OpenMP pools are capped at one thread in the children, so the
figures are single-threaded and do not depend on the machine's other load
as much.  ``--tiny`` shrinks every input; the self-test uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-dense", "atom-maximal", "transform-large", "dump-io")
THREAD_CAP = 1
# fresh interpreters per run whose set-up time is taken, half of them before
# and half after the measured one: the host has slow stretches of a few
# seconds, and spreading the samples over the run keeps one stretch from
# setting the median
SETUP_SAMPLES = 15
DEADLINE_S = 170  # one workload must finish within this, checks included

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "transform.forward.calls": "count",
    "transform.forward.self_s": "s",
    "transform.inverse.self_s": "s",
    "transform.work_units": "count",
    "transform.bytes_computed": "B",
    "transform.self_s": "s",
    "transform.character.calls": "count",
    "transform.character.self_s": "s",
    "group.nat_expand.calls": "count",
    "group.self_s": "s",
    "kernels.sweep.self_s": "s",
    "kernels.sweep.cell_steps": "count",
    "kernels.means.calls": "count",
    "kernels.means.self_s": "s",
    "kernels.self_s": "s",
    "maximal.stream.self_s": "s",
    "maximal.stream.cell_steps": "count",
    "maximal.stream.spectral_fill": "ratio",
    "maximal.self_s": "s",
    "hardy.self_s": "s",
    "hardy.martingale.cells": "count",
    "counterexample.self_s": "s",
    "counterexample.probe.cell_steps": "count",
    "functions.self_s": "s",
    "functions.write_csv.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "verify.self_s": "s",
    "verify.checks_failed": "count",
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.harness_s": "s",
}

LAYER_SELF = [f"{layer}.self_s" for layer in LAYERS]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "VILENKIN_THREADS",
    ):
        env[var] = str(THREAD_CAP)
    return env


def run_metadata(root: Path) -> dict[str, Any]:
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (root / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        sha = got.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": THREAD_CAP,
        "python": sys.version.split()[0],
    }


def run_workload(root: Path, args: argparse.Namespace, name: str, deadline: float) -> dict[str, Any]:
    """Set-up samples plus one measured worker; returns the worker's result."""
    workdir = root / ".bench_work" / f"{name}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    trace_out = root / ".bench_work" / f"trace-{name}.jsonl"  # the latest traced run
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(args.seed)]
    cmd += ["--workdir", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    env = child_env(root)
    before = 1 if args.tiny else SETUP_SAMPLES // 2
    setup = []
    try:
        for _ in range(before):
            setup.append(_spawn(cmd + ["--setup-only"], env, root, deadline)[0])
        measure = cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            measure += ["--trace-out", str(trace_out)]
        ready, lines = _spawn(measure, env, root, deadline)
        setup.append(ready)
        for _ in range(before):
            setup.append(_spawn(cmd + ["--setup-only"], env, root, deadline)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(lines[-1])
    result["setup_samples"] = setup
    return result


def _spawn(cmd: list[str], env: dict[str, str], root: Path, deadline: float) -> tuple[float, list[str]]:
    """Start a worker; return (seconds until it printed 'ready', its stdout lines)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))[0]:
            raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: worker exceeded the {DEADLINE_S} s deadline: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: worker failed (exit {proc.returncode}): {' '.join(cmd)}")
    return ready, rest.splitlines()


def end_to_end(result: dict[str, Any]) -> dict[str, float]:
    ms = [1e3 * t for t in result["op_best_s"]]
    return {
        "wall_s": result["wall_s"],
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setup_samples"]),
    }


def report(name: str, result: dict[str, Any], trace: bool) -> dict[str, float]:
    """Print the human-readable lines for one workload; return its metrics."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name}: {result['rounds']} untraced round(s), numpy {result['numpy']}")
    checked = f"outputs checked in {result['checked_rounds']} round(s)"
    print(f"  {'fail_ratio':<12} {failed / attempted:>14.6f} {'':<5} {failed}/{attempted} ops failed, {checked}")
    if not trace:
        metrics = end_to_end(result)
        notes = {
            "wall_s": f"op list, each op's best of {result['rounds']} round(s)",
            "op_p50_ms": f"over n={len(result['op_best_s'])} ops, best of {result['rounds']} round(s) each",
            "op_p90_ms": f"over n={len(result['op_best_s'])} ops, best of {result['rounds']} round(s) each",
            "peak_rss_mb": "peak RSS of the worker process",
            "setup_s": f"median of {len(result['setup_samples'])} fresh interpreters",
        }
        for key, unit in END_TO_END.items():
            print(f"  {key:<12} {metrics[key]:>14.6f} {unit:<5} {notes[key]}")
        return metrics
    layers = result["per_layer"]
    metrics = {key: layers.get(key, 0) for key in PER_LAYER}
    for key, unit in PER_LAYER.items():
        print(f"  {key:<34} {metrics[key]:>16.6f} {unit}")
    wall = layers["trace.wall_s"]
    shares = sorted(((layers[k] / wall, k.split(".")[0]) for k in LAYER_SELF), reverse=True)
    covered = sum(layers[k] for k in LAYER_SELF) / wall
    print(f"  layer self times account for {100 * covered:.2f}% of the traced wall time (the rest is harness)")
    print("  dominant layers: " + ", ".join(f"{layer} {100 * s:.1f}%" for s, layer in shares[:3]))
    print(f"  work counts repeat across {result['traced_rounds']} traced round(s): {result['counts_repeat']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vilenkin" / "__init__.py").is_file():
        print(f"error: no vilenkin sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    meta = run_metadata(root)
    print(f"# vilenkin benchmark seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    attempted = failed = 0
    metrics: dict[str, dict[str, Any]] = {}
    units = PER_LAYER if args.trace else END_TO_END
    for name in names:
        result = run_workload(root, args, name, time.monotonic() + DEADLINE_S)
        values = report(name, result, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0 and result.get("counts_repeat", True)
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
