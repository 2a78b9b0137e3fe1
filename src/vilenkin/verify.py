"""Property suites behind the `verify` command.

Acceptance criteria 1-6 are computed here once: each `check_*` function
returns its measured quantities and a pass flag set at the acceptance
threshold.  The suites run them on their own inputs, the acceptance
tests on the release inputs.  A suite passes when every check passes;
randomized suites take an explicit seed so reruns are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

import numpy as np

from .counterexample import build_instance, partial_sum_closed_form, riesz_at_q, shift_identity_check
from .functions import LevelFunction, indicator, require_seed
from .group import Cylinder, make_base
from .hardy import CorpusSpec, Martingale, assemble_from_atoms, hardy_quasinorm, validate_atom
from .kernels import (
    KernelConvention,
    dirichlet,
    fejer_kernel,
    gat_kernel,
    kernel_integral_sweep,
    localization_sweeps,
    partial_sum,
    riesz_kernel,
    riesz_kernel_abel,
    riesz_mean,
    riesz_mean_abel,
)
from .maximal import WeightSpec, weighted_riesz_star
from .transform import forward

__all__ = [
    "CheckResult", "SuiteReport", "run_suite", "SUITES", "check_dirichlet_blocks", "check_dyadic_fejer",
    "check_identities", "check_kernel_integrals", "check_localization", "check_complement_mass",
]

Geometry = tuple[tuple[int, ...], int]  # (moduli pattern, depth)
Case = tuple[tuple[int, ...], int, Sequence[int]]  # (moduli pattern, depth, indices n)
_LEMMAS_DEPTH = 12  # the lemmas suite sweeps the dyadic base of this depth, n up to 2^12


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


# ----------------------------------------------------------------------
# acceptance criteria 1-6


def check_dirichlet_blocks(geometries: Iterable[Geometry]) -> CheckResult:
    """Criterion 1: D_{M_n} is M_n on the zero level-n cylinder and 0 off it."""
    worst = 0.0
    for moduli, depth in geometries:
        base = make_base(moduli, depth)
        for n in range(depth + 1):
            dn = dirichlet(base, base.orders[n], depth)
            block = indicator(Cylinder(base, n, 0), depth, base.orders[n])
            worst = max(worst, dn.max_abs_diff(block))
    return CheckResult("dirichlet-block-closed-form", worst < 1e-12, {"residual": worst})


def check_dyadic_fejer(max_exponent: int) -> CheckResult:
    """Criterion 2: the shifted Fejer kernel at 2^a equals Gat's closed form."""
    if max_exponent < 1:
        raise ValueError(f"max exponent must be >= 1, got {max_exponent}")
    base = make_base((2,), max_exponent)
    base.require_size()
    worst = 0.0
    for a in range(1, max_exponent + 1):
        brute = fejer_kernel(base, 2**a, base.depth, KernelConvention.SHIFTED)
        worst = max(worst, brute.max_abs_diff(gat_kernel(base, a, base.depth)))
    return CheckResult(
        "dyadic-fejer-closed-form", worst < 1e-10, {"residual": worst, "max_exponent": max_exponent}
    )


def check_identities(
    seed: int, mean_cases: Iterable[Case], kernel_cases: Iterable[Case], instance_geometries: Iterable[Geometry]
) -> tuple[CheckResult, ...]:
    """Criterion 3, one check per identity: the Abel routes of Riesz means (one random
    function per case, drawn in order from ``seed``) and kernels, then the spectrum and
    partial-sum case values, shift identity and modulus-sum identity on blow-up stages 1 and 2."""
    require_seed(seed)
    rng = np.random.default_rng(seed)
    worst_mean = 0.0
    for moduli, depth, ns in mean_cases:
        base = make_base(moduli, depth)
        f = LevelFunction(base, depth, rng.standard_normal(base.size) + 1j * rng.standard_normal(base.size))
        for n in ns:
            worst_mean = max(worst_mean, riesz_mean(f, n).max_abs_diff(riesz_mean_abel(f, n)))
    worst_kernel = 0.0
    for moduli, depth, ns in kernel_cases:
        base = make_base(moduli, depth)
        for n in ns:
            gap = riesz_kernel(base, n, depth).max_abs_diff(riesz_kernel_abel(base, n, depth))
            worst_kernel = max(worst_kernel, gap)

    cases_ok = True
    worst_shift = 0.0
    worst_modsum = 0.0
    for moduli, depth in instance_geometries:
        base = make_base(moduli, depth)
        for k in (1, 2):
            inst = build_instance(k, base)
            lo, hi = inst.block_start, inst.block_stop
            probe_is = {0, 1, lo - 1, lo, lo + 1, (lo + hi) // 2, hi - 1, hi}
            probe_is.update(range(hi + 1, min(hi + 3, base.size) + 1))
            spectrum = forward(inst.f).coeffs.copy()
            spectrum[lo:hi] -= 1.0  # the indicator of [M_{2k}, M_{2k+1})
            cases_ok &= bool(np.max(np.abs(spectrum)) <= 1e-10)
            for i in sorted(probe_is):
                closed = partial_sum_closed_form(inst, i)
                cases_ok &= closed.max_abs_diff(partial_sum(inst.f.at_level(closed.level), i)) <= 1e-10
            for j in range(1, lo):
                worst_shift = max(worst_shift, shift_identity_check(inst, j))
            for s in range(k):
                probe = riesz_at_q(inst, s, WeightSpec("unit"))
                worst_modsum = max(worst_modsum, probe.identity_residual_on_support)
                worst_modsum = max(worst_modsum, max(0.0, probe.triangle_slack))
    return (
        CheckResult("riesz-mean-abel-identity", worst_mean < 1e-9, {"residual": worst_mean}),
        CheckResult("riesz-kernel-abel-identity", worst_kernel < 1e-9, {"residual": worst_kernel}),
        CheckResult("partial-sum-case-values", cases_ok, {}),
        CheckResult("dirichlet-shift-identity", worst_shift < 1e-10, {"residual": worst_shift}),
        CheckResult("modulus-sum-identity-at-probes", worst_modsum < 1e-9, {"residual": worst_modsum}),
    )


def check_kernel_integrals(moduli: tuple[int, ...], depth: int, n_max: int) -> CheckResult:
    """Criterion 4: the running max of int |K_n| grows under 1% over n_max/4..n_max."""
    base = make_base(moduli, depth)
    base.require_count(n_max, depth, "n_max (the growth is read over n_max/4..n_max)", least=4)
    sweep = kernel_integral_sweep(base, depth, n_max)
    growth = float(sweep.running_max[n_max - 1] / sweep.running_max[n_max // 4 - 1] - 1.0)
    return CheckResult(
        "kernel-integral-running-max",
        growth < 0.01,
        {"growth_top_octaves": growth, "running_max": float(sweep.running_max[-1])},
    )


def check_localization(
    moduli: tuple[int, ...], depth: int, n_max: int, levels: Iterable[int]
) -> tuple[CheckResult, ...]:
    """Criterion 5, one check per cylinder level: every kernel / tail family has a finite
    empirical constant that grows at most 1% over the top octave of n; failing families
    are named in ``failed_families``.  One kernel stream serves every level."""
    checks = []
    for sweep in localization_sweeps(make_base(moduli, depth), levels, n_max, depth):
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
                if not (np.isfinite(c_emp) and stab <= 0.01):
                    over.append(f"{which}_{kind}")
        if over:  # families whose ratios are unbounded or still growing
            detail["failed_families"] = ",".join(over)
        checks.append(CheckResult(f"localization-ratios-level-{sweep.level_n}", not over, detail))
    return tuple(checks)


def check_complement_mass(spec: CorpusSpec) -> CheckResult:
    """Criterion 6: the corpus maximum of the L^p mass off each atom's support of its
    log-weighted Riesz maximal function is finite and within 10% of itself at depth + 1."""
    maxima = []
    for corpus in (spec, replace(spec, depth=spec.depth + 1)):
        base = corpus.base()
        worst = 0.0
        for atom in corpus.generate():
            f = atom.values.at_level(base.depth)
            values = weighted_riesz_star(f, WeightSpec("log"), base.size).result.values
            blk = atom.support.block(base.depth)
            outside = np.concatenate([values[: blk.start], values[blk.stop :]])
            mass = np.mean(np.abs(outside) ** corpus.p) * (len(outside) / base.size)
            worst = max(worst, float(mass))
        maxima.append(worst)
    m_d, m_deeper = maxima
    stable = bool(np.isfinite(m_d) and abs(m_d - m_deeper) <= 0.10 * m_deeper)
    return CheckResult(
        "weighted-riesz-complement-mass", stable, {"corpus_max": m_d, "corpus_max_deeper": m_deeper}
    )


# ----------------------------------------------------------------------
# suites


def suite_kernels(max_exponent: int = 10) -> SuiteReport:
    """Criteria 1, 2 and 4, plus the gap between the two Fejer conventions."""
    fejer = check_dyadic_fejer(max_exponent)  # first: its size guard refuses before any check allocates
    # The two averaging conventions differ by exactly D_n / n.
    base = make_base((2, 3), 6)
    worst = 0.0
    for n in (1, 2, 5, 31, 107):
        gap = fejer_kernel(base, n, 6, KernelConvention.SHIFTED) - fejer_kernel(
            base, n, 6, KernelConvention.ZERO_BASED
        )
        worst = max(worst, gap.max_abs_diff(dirichlet(base, n, 6) * (1.0 / n)))
    checks = (
        check_dirichlet_blocks((((2,), 12), ((2, 3), 7), ((3,), 6))),
        fejer,
        CheckResult("convention-gap-is-dirichlet-over-n", worst < 1e-12, {"residual": worst}),
        check_kernel_integrals((2,), 12, 4096),
    )
    return SuiteReport("kernels", checks)


def suite_identities(seed: int = 0) -> SuiteReport:
    """Criterion 3."""
    checks = check_identities(
        seed,
        mean_cases=(((2,), 10, (2, 3, 17, 256, 512)), ((2, 3), 7, (2, 5, 61, 432))),
        kernel_cases=(((2,), 9, (1, 2, 33, 512)), ((3,), 5, (4, 100, 243))),
        instance_geometries=(((2,), 12), ((2, 3), 8)),
    )
    return SuiteReport("identities", checks)


def suite_lemmas(max_cylinder_level: int = 5) -> SuiteReport:
    """Criterion 5, on levels 1..max_cylinder_level with n <= 4096."""
    if max_cylinder_level < 1:
        raise ValueError(f"max cylinder level must be >= 1, got {max_cylinder_level}")
    checks = check_localization((2,), _LEMMAS_DEPTH, 2**_LEMMAS_DEPTH, range(1, max_cylinder_level + 1))
    return SuiteReport("lemmas", checks)


def suite_atoms(seed: int | None = None, count: int = 50) -> SuiteReport:
    """Atom validity, the assembled-martingale budget, and criterion 6 on the first 20 atoms."""
    if seed is None:
        raise ValueError("the atoms suite is randomized and needs an explicit seed")
    if count < 1:
        raise ValueError(f"the atoms suite needs at least one atom, got count {count}")
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
    assemblies = [assemble_from_atoms(base, subset, coeffs, n) for n in range(base.depth + 1)]
    mart = Martingale(base, tuple(a.component for a in assemblies))
    ratio = hardy_quasinorm(mart, spec.p) / assemblies[-1].budget ** (1.0 / spec.p)
    # for p <= 1, ||sum mu_k a_k||_{H_p}^p <= sum |mu_k|^p: each atom's
    # maximal function is at most mu(I)^(-1/p) on its support I and 0 off it
    checks.append(
        CheckResult("assembled-martingale-budget", bool(ratio <= 1.0 + 1e-9), {"empirical_constant": ratio})
    )

    mass = check_complement_mass(replace(spec, count=min(count, 20)))  # a corpus prefix
    if mass.passed:  # the passing line reports the depth-K maximum only
        mass = replace(mass, detail={"corpus_max": mass.detail["corpus_max"]})
    checks.append(mass)
    return SuiteReport("atoms", tuple(checks))


SUITES = {"kernels": suite_kernels, "identities": suite_identities, "lemmas": suite_lemmas, "atoms": suite_atoms}


def run_suite(name: str, **kwargs: Any) -> SuiteReport:
    """The suite of that name in :data:`SUITES`, run with ``kwargs``."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](**kwargs)
