"""Property suites behind the `verify` command.

Each suite runs a family of exact checks and returns per-check results
with residuals or empirical constants; a suite passes when every check
passes.  Randomized suites take an explicit seed so reruns are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .counterexample import build_instance, partial_sum_closed_form, riesz_at_q, shift_identity_check
from .functions import LevelFunction, indicator
from .group import Cylinder, VilenkinBase, make_base
from .hardy import CorpusSpec, Martingale, assemble_from_atoms, hardy_quasinorm, validate_atom
from .kernels import (
    KernelConvention,
    dirichlet,
    fejer_kernel,
    gat_kernel,
    kernel_integral_sweep,
    localization_sweep,
    riesz_kernel,
    riesz_kernel_abel,
    riesz_mean,
    riesz_mean_abel,
)
from .maximal import WeightSpec, weighted_riesz_star

__all__ = ["CheckResult", "SuiteReport", "run_suite", "SUITES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_payload(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def _random_function(base: VilenkinBase, level: int, rng: np.random.Generator) -> LevelFunction:
    total = base.orders[level]
    vals = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return LevelFunction(base, level, vals)


# ----------------------------------------------------------------------
# kernels suite


def suite_kernels(max_exponent: int = 10) -> SuiteReport:
    checks = []

    # Dirichlet block formula: D_{M_n} is M_n on the zero level-n cylinder.
    worst = 0.0
    for moduli, depth in (((2,), 12), ((2, 3), 7), ((3,), 6)):
        base = make_base(moduli, depth)
        for n in range(depth + 1):
            dn = dirichlet(base, base.orders[n], base.depth)
            block = indicator(Cylinder.from_rank(base, n, 0), base.depth, base.orders[n])
            worst = max(worst, dn.max_abs_diff(block))
    checks.append(CheckResult("dirichlet-block-closed-form", worst < 1e-12, {"residual": worst}))

    # Dyadic closed form of the shifted Fejer kernel at powers of two.
    base = make_base((2,), max_exponent)
    worst = 0.0
    for a in range(1, max_exponent + 1):
        brute = fejer_kernel(base, 2**a, base.depth, KernelConvention.SHIFTED)
        worst = max(worst, brute.max_abs_diff(gat_kernel(base, a, base.depth)))
    checks.append(
        CheckResult(
            "dyadic-fejer-closed-form",
            worst < 1e-10,
            {"residual": worst, "max_exponent": max_exponent},
        )
    )

    # The two averaging conventions differ by exactly D_n / n.
    base = make_base((2, 3), 6)
    worst = 0.0
    for n in (1, 2, 5, 31, 107):
        gap = fejer_kernel(base, n, 6, KernelConvention.SHIFTED) - fejer_kernel(
            base, n, 6, KernelConvention.ZERO_BASED
        )
        worst = max(worst, gap.max_abs_diff(dirichlet(base, n, 6) * (1.0 / n)))
    checks.append(CheckResult("convention-gap-is-dirichlet-over-n", worst < 1e-12, {"residual": worst}))

    # Kernel integral boundedness: running max growth over the top octave.
    base = make_base((2,), 12)
    sweep = kernel_integral_sweep(base, 12, 4096)
    growth = sweep.growth(1024, 4096)
    checks.append(
        CheckResult(
            "kernel-integral-running-max",
            growth < 0.01,
            {
                "growth_top_octaves": growth,
                "running_max": float(sweep.running_max[-1]),
            },
        )
    )
    return SuiteReport("kernels", tuple(checks))


# ----------------------------------------------------------------------
# identities suite


def suite_identities(seed: int = 0) -> SuiteReport:
    checks = []
    rng = np.random.default_rng(seed)

    # Abel rearrangement of Riesz means against the direct definition.
    worst = 0.0
    for moduli, depth, ns in (((2,), 10, (2, 3, 17, 256, 512)), ((2, 3), 7, (2, 5, 61, 432))):
        base = make_base(moduli, depth)
        f = _random_function(base, depth, rng)
        for n in ns:
            worst = max(worst, riesz_mean(f, n).max_abs_diff(riesz_mean_abel(f, n)))
    checks.append(CheckResult("riesz-mean-abel-identity", worst < 1e-9, {"residual": worst}))

    worst = 0.0
    for moduli, depth, ns in (((2,), 9, (1, 2, 33, 512)), ((3,), 5, (4, 100, 243))):
        base = make_base(moduli, depth)
        for n in ns:
            worst = max(
                worst, riesz_kernel(base, n, depth).max_abs_diff(riesz_kernel_abel(base, n, depth))
            )
    checks.append(CheckResult("riesz-kernel-abel-identity", worst < 1e-9, {"residual": worst}))

    # Partial-sum case values and the shifted-character identity.
    cases_ok = True
    worst_shift = 0.0
    worst_modsum = 0.0
    for moduli, depth in (((2,), 12), ((2, 3), 8)):
        base = make_base(moduli, depth)
        for k in (1, 2):
            inst = build_instance(k, base)
            lo, hi = inst.block_start, inst.block_stop
            probe_is = sorted(
                {0, 1, lo - 1, lo, lo + 1, (lo + hi) // 2, hi - 1, hi, min(hi + 3, base.size)}
            )
            try:
                for i in probe_is:
                    partial_sum_closed_form(inst, i)  # raises on any mismatch
            except AssertionError:
                cases_ok = False
            for j in range(1, lo):
                worst_shift = max(worst_shift, shift_identity_check(inst, j))
            for s in range(inst.n_k):
                probe = riesz_at_q(inst, s, WeightSpec.unit())
                worst_modsum = max(worst_modsum, probe.identity_residual_on_support)
                worst_modsum = max(worst_modsum, max(0.0, probe.triangle_slack))
    checks.append(CheckResult("partial-sum-case-values", cases_ok, {}))
    checks.append(CheckResult("dirichlet-shift-identity", worst_shift < 1e-10, {"residual": worst_shift}))
    checks.append(
        CheckResult("modulus-sum-identity-at-probes", worst_modsum < 1e-9, {"residual": worst_modsum})
    )
    return SuiteReport("identities", tuple(checks))


# ----------------------------------------------------------------------
# lemmas suite


def suite_lemmas(max_cylinder_level: int = 5, depth: int = 12) -> SuiteReport:
    base = make_base((2,), depth)
    n_max = base.size if base.size <= 4096 else 4096
    checks = []
    for n_level in range(1, max_cylinder_level + 1):
        sweep = localization_sweep(base, n_level, n_max, depth)
        detail: dict[str, Any] = {}
        over: list[str] = []
        for which in ("kernel", "tail"):
            for kind in ("pair", "single"):
                if not any(c.kind == kind for c in sweep.cells):
                    continue
                c_emp = sweep.c_emp(which, kind)
                stab = sweep.stability(which, kind)
                detail[f"{which}_{kind}_c_emp"] = c_emp
                detail[f"{which}_{kind}_top_octave_growth"] = stab
                if not (np.isfinite(c_emp) and stab <= 0.01):  # criterion 5's bound
                    over.append(f"{which}_{kind}")
        if over:  # families whose ratios are unbounded or still growing
            detail["failed_families"] = ",".join(over)
        checks.append(CheckResult(f"localization-ratios-level-{n_level}", not over, detail))
    return SuiteReport("lemmas", tuple(checks))


# ----------------------------------------------------------------------
# atoms suite


def suite_atoms(seed: int, count: int = 50) -> SuiteReport:
    checks = []
    spec = CorpusSpec(
        moduli=(2,), depth=10, p=0.5, count=count, seed=seed, support_level_min=1, support_level_max=4
    )
    atoms = spec.generate()
    invalid = [i for i, a in enumerate(atoms) if not validate_atom(a).ok]
    checks.append(CheckResult("atom-validity", not invalid, {"invalid_indices": invalid}))

    base = spec.base()
    rng = np.random.default_rng(seed + 1)
    coeffs = rng.uniform(0.5, 2.0, size=min(8, len(atoms)))
    subset = atoms[: len(coeffs)]
    comps = [assemble_from_atoms(base, subset, coeffs, n).component for n in range(base.depth + 1)]
    mart = Martingale(base, tuple(comps))
    budget = sum(abs(c) ** spec.p for c in coeffs)
    ratio = hardy_quasinorm(mart, spec.p) / budget ** (1.0 / spec.p)
    # for p <= 1, ||sum mu_k a_k||_{H_p}^p <= sum |mu_k|^p: each atom's
    # maximal function is at most mu(I)^(-1/p) on its support I and 0 off it
    checks.append(
        CheckResult("assembled-martingale-budget", bool(ratio <= 1.0 + 1e-9), {"empirical_constant": ratio})
    )

    worst = 0.0
    for atom in atoms[:20]:
        f = atom.values.at_level(base.depth)
        report = weighted_riesz_star(f, WeightSpec.log(), base.size)
        blk = atom.support.block(base.depth)
        outside = np.concatenate(
            [report.result.values[: blk.start], report.result.values[blk.stop :]]
        )
        worst = max(worst, float(np.mean(np.abs(outside) ** 0.5) * (len(outside) / base.size)))
    checks.append(
        CheckResult("weighted-riesz-complement-mass", bool(np.isfinite(worst)), {"corpus_max": worst})
    )
    return SuiteReport("atoms", tuple(checks))


def run_suite(name: str, seed: int | None = None, **kwargs: Any) -> SuiteReport:
    if name == "kernels":
        return suite_kernels(**kwargs)
    if name == "identities":
        return suite_identities(seed=seed if seed is not None else 0)
    if name == "lemmas":
        return suite_lemmas(**kwargs)
    if name == "atoms":
        if seed is None:
            raise ValueError("the atoms suite is randomized and needs an explicit seed")
        return suite_atoms(seed=seed, **kwargs)
    raise ValueError(f"unknown suite {name!r}")


SUITES = ("kernels", "identities", "lemmas", "atoms")
