"""Quick self-test of the benchmark on tiny inputs.

    python3 -m pytest bench -q

It is not part of the package's test suite (``tests/``), so it leaves that
suite's wall time unchanged.  It exercises the harness end to end, shows
that a deliberately perturbed output is counted as a failed op, and checks
the tracer: wrapped names, layer self times that cover all but a small
harness share of the traced wall time, and work counts that repeat exactly
for one seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import vilenkin  # noqa: E402
from vilenkin import cli, maximal  # noqa: E402


def _tiny(name: str, tmp_path: Path, seed: int = 3):
    wl = workloads.WORKLOADS[name](seed, True, tmp_path)
    wl.warm()
    wl.prepare_checks()
    return wl


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    wl = _tiny(name, tmp_path)
    result = worker.run_rounds(wl, 0.0)
    assert result["attempted"] == len(wl.ops())
    assert result["failed"] == 0


def _perturb_forward(monkeypatch, wl):
    real = vilenkin.forward

    def forward(f):
        spec = real(f)
        coeffs = spec.coeffs.copy()
        coeffs[-1] += 1e-3
        return vilenkin.Spectrum(spec.base, spec.level, coeffs)

    monkeypatch.setattr(vilenkin, "forward", forward)


def _perturb_sigma_star(monkeypatch, wl):
    real = maximal.sigma_star

    def sigma_star(f, n_max, *args):
        rep = real(f, n_max, *args)
        return maximal.MaximalReport(rep.operator, rep.n_max, rep.result * 0.5, rep.argmax)

    monkeypatch.setattr(maximal, "sigma_star", sigma_star)


def _perturb_sweep(monkeypatch, wl):
    real = vilenkin.kernel_integral_sweep

    def sweep(*args, **kwargs):
        got = real(*args, **kwargs)
        ints = got.integrals * 1.01
        return vilenkin.kernels.KernelIntegralSweep(got.convention, ints, np.maximum.accumulate(ints))

    monkeypatch.setattr(vilenkin, "kernel_integral_sweep", sweep)


def _perturb_cli_spectrum(monkeypatch, wl):
    _perturb_forward(monkeypatch, wl)  # the checks call vilenkin.transform.forward
    monkeypatch.setattr(cli, "forward", vilenkin.forward)


PERTURBATIONS = {
    "transform-large": (_perturb_forward, "forward/"),
    "atom-maximal": (_perturb_sigma_star, "sigma/"),
    "sweep-dense": (_perturb_sweep, "kernel_integral_sweep"),
    "dump-io": (_perturb_cli_spectrum, "spectrum-dump/"),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_perturbed_output_counts_as_failure(name, tmp_path, monkeypatch):
    wl = _tiny(name, tmp_path)
    perturb, label = PERTURBATIONS[name]
    perturb(monkeypatch, wl)
    messages: list[str] = []
    result = worker.run_rounds(wl, 0.0, log=messages.append)
    ops = wl.ops()
    hit = sum(1 for op in ops if op.label.startswith(label))
    assert result["attempted"] == len(ops)  # the run went on past the failures
    assert result["failed"] >= hit > 0
    assert any(label in m for m in messages)


class _Flaky(workloads.Workload):
    """One op whose output is wrong from its third call on, and one that
    raises on its sixth call (round 5, whose outputs are not checked)."""

    name = "flaky"

    def __init__(self) -> None:
        self.calls = {"wrong": 0, "raises": 0}

    def _wrong(self) -> int:
        self.calls["wrong"] += 1
        return self.calls["wrong"]

    def _raises(self) -> int:
        self.calls["raises"] += 1
        if self.calls["raises"] == 6:
            raise RuntimeError("sixth call")
        return 0

    def ops(self) -> list[workloads.Op]:
        return [
            workloads.Op("wrong", self._wrong, lambda out: "wrong" if out >= 3 else None),
            workloads.Op("raises", self._raises, lambda out: None),
        ]


def test_checked_rounds_and_failures_in_unchecked_rounds():
    assert [r for r in range(10) if worker.checked_round(r)] == [0, 1, 4, 8]
    wl = _Flaky()
    messages: list[str] = []
    result = worker.run_rounds(wl, 0.02, log=messages.append)
    rounds = result["rounds"]
    assert rounds >= 6 and wl.calls["wrong"] == rounds
    checked = [r for r in range(rounds) if worker.checked_round(r)]
    # each checked round checks both ops; the raise in round 5 counts too
    assert result["attempted"] == 2 * len(checked) + 1
    # the wrong output is caught only in checked rounds from round 2 on
    assert result["failed"] == sum(1 for r in checked if r >= 2) + 1
    assert any("sixth call" in m for m in messages)


def test_tracer_wraps_bound_names_and_restores_them():
    rec = tracer.Recorder()
    originals = (vilenkin.kernels.forward, vilenkin.transform.CharacterSampler.character, cli.main)
    rec.install()
    try:
        assert vilenkin.kernels.forward.__wrapped__ is originals[0]
        assert vilenkin.transform.forward.__wrapped__ is originals[0]
        assert vilenkin.transform.CharacterSampler.character.__wrapped__ is originals[1]
        assert cli.main.__wrapped__ is originals[2]
    finally:
        rec.uninstall()
    assert (vilenkin.kernels.forward, vilenkin.transform.CharacterSampler.character, cli.main) == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_accounts_for_wall_time_and_counts_repeat(name, tmp_path):
    runs = [worker.run_rounds(_tiny(name, tmp_path), 0.0, trace=True) for _ in range(2)]
    for result in runs:
        assert result["failed"] == 0 and result["counts_repeat"]
        layers = result["per_layer"]
        total = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS) + layers["trace.harness_s"]
        assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    # time outside every wrapped library call is harness time, about 1% on
    # tiny inputs; a hot path that escaped wrapping would show up here
    assert min(r["per_layer"]["trace.harness_s"] / r["per_layer"]["trace.wall_s"] for r in runs) < 0.1
    counts = [{k: v for k, v in r["per_layer"].items() if isinstance(v, int)} for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["per_layer"]["transform.work_units"] > 0
    if name == "atom-maximal":
        assert runs[0]["per_layer"]["maximal.stream.cell_steps"] > 0
        assert 0 < runs[0]["per_layer"]["maximal.stream.spectral_fill"] <= 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_harness_end_to_end(trace):
    cmd = [sys.executable, "bench/run.py", "--tiny", "--seconds", "0", "--seed", "5", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER if trace else run.END_TO_END
    want = {f"{w}/{m}": u for w in run.WORKLOADS for m, u in units.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "dump-io", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
