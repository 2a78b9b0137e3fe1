"""Extremal spectral-block martingales and their blow-up diagnostics.

The stage-k instance is the difference of two Dirichlet kernels at
consecutive even/odd generalized powers, so its spectrum is the indicator
of one dyadic-style block of indices.  Probing its Riesz means at the
block-start-plus-M_{2s} indices isolates a single shifted Dirichlet sum,
which is what defeats weights growing slower than the critical rate.
That spectrum is known, so each probe is synthesized from its M_{2s}
weights at level 2s, where ``riesz_at_q`` also takes its modulus-sum bound
and shell diagnostics; the instance itself is never transformed here.
A weak blow-up row's numerator is the constant s = 0 probe, lambda by
construction; only p = 1/2 rows build the s >= 1 probes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .functions import LevelFunction, constant, pointwise_sup, require_positive
from .group import VilenkinBase
from .kernels import _riesz_weights, _window, dirichlet, harmonic_sums
from .maximal import WeightSpec
from .transform import CharacterSampler

__all__ = [
    "CounterexampleInstance",
    "build_instance",
    "partial_sum_closed_form",
    "shift_identity_check",
    "riesz_at_q",
    "RieszProbe",
    "blowup_table",
    "BlowupRow",
    "BlowupTable",
]


@dataclass(frozen=True, eq=False)
class CounterexampleInstance:
    """Stage-k extremal function with its probe index table."""

    base: VilenkinBase
    k: int
    f: LevelFunction  # resolved at level 2k + 1
    probe_indices: tuple[int, ...]  # M_{2k} + M_{2s} for s = 0 .. k - 1

    @property
    def block_start(self) -> int:
        return self.base.orders[2 * self.k]

    @property
    def block_stop(self) -> int:
        return self.base.orders[2 * self.k + 1]


def build_instance(k: int, base: VilenkinBase) -> CounterexampleInstance:
    """Difference of Dirichlet kernels D_{M_{2k+1}} - D_{M_{2k}}.

    Both kernels are cylinder blocks, so the difference has exact integer
    values: M_{2k+1} - M_{2k} on the deep zero cylinder, -M_{2k} on the
    rest of the coarser one, zero elsewhere.  Storing those keeps the
    small-p quasi-norms exact (synthesis noise raised to a small power
    would not be harmless).  The spectrum, the indicator of [M_{2k}, M_{2k+1}),
    is checked against the transform by ``verify.check_identities``.
    """
    level = 2 * k + 1
    if level > base.depth:
        raise ValueError(f"stage {k} needs depth >= {level}, base has {base.depth}")
    lo = base.orders[2 * k]
    hi = base.orders[2 * k + 1]
    vals = np.zeros(hi, dtype=np.complex128)
    vals[: hi // lo] = -lo
    vals[0] = hi - lo
    probes = tuple(lo + base.orders[2 * s] for s in range(k))
    return CounterexampleInstance(base, k, LevelFunction(base, level, vals), probes)


def partial_sum_closed_form(inst: CounterexampleInstance, i: int) -> LevelFunction:
    """Case value of S_i f at the first level resolving i: zero below the block,
    a Dirichlet difference inside it, the function itself beyond.  The
    transform-computed partial sum is ``verify.check_identities``'s oracle."""
    base = inst.base
    base.require_count(i, base.depth, "partial-sum index", least=0)
    level = inst.f.level
    while base.orders[level] < i:  # deepen until i is resolvable
        level += 1
    if i <= inst.block_start:
        return LevelFunction(base, level, np.zeros(base.orders[level], dtype=np.complex128))
    if i < inst.block_stop:
        return dirichlet(base, i, level) - dirichlet(base, inst.block_start, level)
    return inst.f.at_level(level)


def shift_identity_check(inst: CounterexampleInstance, j: int) -> float:
    """Residual of D_{j + M} - D_M = psi_M * D_j for the block start M.

    Exact for 1 <= j <= M - 1 because the digit expansions of j and M do
    not overlap there, so the characters factor.
    """
    m = inst.block_start
    if not 1 <= j <= m - 1:
        raise ValueError(f"shift index {j} outside [1, {m - 1}]")
    base = inst.base
    level = inst.f.level
    lhs = dirichlet(base, j + m, level) - dirichlet(base, m, level)
    sampler = CharacterSampler(base, level)
    rhs_vals = sampler.character(m) * dirichlet(base, j, level).values
    return float(np.max(np.abs(lhs.values - rhs_vals)))


@dataclass(frozen=True, eq=False)
class RieszProbe:
    """Weighted Riesz mean of the instance at one probe index.

    The modulus-sum identity (weighted modulus equals the harmonic sum of
    |D_j| over the shifted block) holds pointwise on the cylinder where
    all the low Dirichlet kernels are nonnegative, i.e. on I_{2s}; off it
    the sum still dominates by the triangle inequality.  Both facts are
    reported.  The shell value is the constant the mean takes on
    I_{2s} \\ I_{2s+1}, compared to the constant-free lower-bound shape
    M_{2s}^2 / (phi(q) l_q M_{2k}).
    """

    s: int
    q: int
    weighted: LevelFunction  # |R_q f| / phi(q)
    identity_residual_on_support: float
    triangle_slack: float  # max over all points of weighted - bound (should be <= 0)
    shell_value: float
    lower_bound_expr: float

    @property
    def shell_ratio(self) -> float:
        return self.shell_value / self.lower_bound_expr


def _weighted_probe(inst: CounterexampleInstance, s: int, phi: float, harm: np.ndarray) -> LevelFunction:
    """|R_q f| / phi at the probe q = M_{2k} + M_{2s}, at level 2s; phi = phi(q), and ``harm``
    is the caller's ``harmonic_sums`` to q or past it (its prefix is ``harmonic_sums(q)``).

    R_q f = psi_{M_{2k}} sum_{i < M_{2s}} w_i psi_i with w_i = 1 - l_{M_{2k}+i} / l_q
    (shift identity), so its modulus is the level-2s synthesis of w.  At s = 0
    that is the constant 1 / (phi(q) l_q q), kept in closed form: 1 - l_{q-1} / l_q cancels.
    """
    q = inst.probe_indices[s]
    if s == 0:
        return constant(inst.base, 0, 1.0 / (phi * harm[q] * q))
    m = inst.block_start
    probe = _window(inst.base, 2 * s, q - m, weights=lambda i: _riesz_weights(harm[: q + 1], m + i))
    return (1.0 / phi) * probe.modulus()


def riesz_at_q(inst: CounterexampleInstance, s: int, weight: WeightSpec) -> RieszProbe:
    """Evaluate |R_q f| / phi(q) at probe q = M_{2k} + M_{2s}, refined to the instance level.
    The mean and its bound sum_{j <= M_{2s}} |D_j| / (j + M_{2k}) are level-2s functions,
    so the diagnostics are read at level 2s, where I_{2s} is cell 0."""
    if not 0 <= s < inst.k:
        raise ValueError(f"probe stage {s} outside [0, {inst.k})")
    q = inst.probe_indices[s]
    phi = float(weight.phi(q)[q - 1])
    harm = harmonic_sums(q)
    weighted = _weighted_probe(inst, s, phi, harm)
    m = inst.block_start
    m2s = inst.base.orders[2 * s]
    bound_vals = np.zeros(m2s, dtype=np.float64)
    for j, d in enumerate(CharacterSampler(inst.base, 2 * s).partial_sums(m2s), start=1):
        bound_vals += np.abs(d) / (j + m)
    bound_vals /= phi * harm[q]

    diff = np.real(weighted.values) - bound_vals
    identity_residual = float(abs(diff[0]))
    triangle_slack = float(np.max(diff))
    shell_value = float(np.real(weighted.values[0]))  # the shell I_{2s} \ I_{2s+1} lies in cell 0
    lower = m2s**2 / (phi * harm[q] * m)
    return RieszProbe(s, q, weighted.at_level(inst.f.level), identity_residual, triangle_slack, shell_value, lower)


@dataclass(frozen=True)
class BlowupRow:
    k: int
    probe_indices: tuple[int, ...]
    hardy_norm: float
    numerator: float
    ratio: float
    analytic_lower_bound: float
    hardy_scaling: float  # ||f_k||_{H_p} / M_{2k}^{1 - 1/p}


@dataclass(frozen=True)
class BlowupTable:
    """Stage table with a finite-range trend label, never a limit claim.

    ``monotone`` records plain strict increase of the ratio column.  The
    ``flag`` is "increasing" only when the column has at least two stages
    and grows at a nondecreasing rate (accelerating growth is the
    finite-range signature of the blow-up mechanism); a column rising
    toward a plateau, which is what a boundedness-side weight produces,
    and a single stage, which shows no trend, get "flat-or-bounded".
    This flag is the library's one trend label.
    """

    p: float
    weight: WeightSpec
    rows: tuple[BlowupRow, ...]
    monotone: bool
    flag: str  # increasing | flat-or-bounded

    def ratios(self) -> list[float]:
        return [r.ratio for r in self.rows]


def _analytic_power(m2k: int, p: float) -> float:
    """(M_2k + 1)^(1/p - 2), the power in the weak rows' analytic bound, refused
    when it overflows float64, as it does for a p near zero."""
    try:
        power = (m2k + 1) ** (1.0 / p - 2.0)
    except OverflowError:  # a float power raises; 1/p = inf for a subnormal p gives inf instead
        power = math.inf
    if not math.isfinite(power):
        raise ValueError(f"p = {p} is too small: (M_2k + 1)^(1/p - 2) overflows float64 at M_2k = {m2k}")
    return power


def blowup_table(
    base: VilenkinBase,
    weight: WeightSpec,
    p: float,
    k_range: range,
) -> BlowupTable:
    """Exact blow-up diagnostics per stage k.

    For p = 1/2 the numerator is the strong expression (integral of |T f|^(1/2))^2
    of the sup over the probe table of the weighted Riesz mean moduli, each at its
    level 2s, refined once to the instance level so the means sum in its order; only
    these rows build the s >= 1 probes.  Otherwise it is the weak threshold expression
    lambda * mu(|T f| >= lambda)^(1/p) at lambda = 1 / (phi(q0) l_{q0} q0), the constant
    s = 0 probe: the sup includes it, so mu = 1 and the numerator is lambda by construction.
    The ratio column divides by the exact Hardy quasi-norm ||f_k||_p: the spectrum starts
    at M_{2k}, so E_n f_k = 0 for n <= 2k and f* = |f_k|.  ``BlowupTable`` describes the flag.
    """
    require_positive(p, "p")
    if not k_range:
        raise ValueError("the stage range is empty, need at least one stage k >= 1")
    rows = []
    for k in k_range:
        if k < 1:
            raise ValueError("stages start at k = 1")
        inst = build_instance(k, base)
        if not rows:  # one table of each per call, up to the deepest stage the base holds:
            top = min(max(k_range), (base.depth - 1) // 2)  # a prefix is the table built to its end
            last = base.orders[2 * top] + base.orders[2 * top - 2]  # the last probe index
            _analytic_power(base.orders[2 * top], p)  # refuses a p near zero before a weight table overflows
            divisors = weight.divisors(base.orders[2 * top + 1] if p == 0.5 else last)
            harm = harmonic_sums(last)

            def phi(n_max: int) -> np.ndarray:  # weight.phi(n_max), checked on a prefix
                return weight._checked(divisors[:n_max])

        hp = inst.f.lp_quasinorm(p)
        if hp < sys.float_info.min:  # a subnormal norm keeps too few significant bits for its ratio
            raise ValueError(
                f"p = {p} is too small: stage {k}'s Hardy quasi-norm {hp:.3g} is below float64's normal range"
            )
        m2k = base.orders[2 * k]
        if p == 0.5:
            probes = (_weighted_probe(inst, s, float(phi(q)[q - 1]), harm) for s, q in enumerate(inst.probe_indices))
            sup_fn = pointwise_sup(probes).at_level(inst.f.level)
            numerator = sup_fn.lp_quasinorm(0.5)  # equals (integral |T f|^(1/2))^2
            analytic = k / float(phi(base.orders[2 * k + 1])[-1])
        else:
            # the fold would include this constant lambda, so mu(sup >= lambda) = 1
            q0 = inst.probe_indices[0]
            numerator = float(_weighted_probe(inst, 0, float(phi(q0)[q0 - 1]), harm).values[0].real)
            phi_q0 = float(phi(inst.probe_indices[-1])[m2k])  # checks phi up to the last probe
            analytic = _analytic_power(m2k, p) / (phi_q0 * np.log(m2k + 1))
        rows.append(
            BlowupRow(
                k=k,
                probe_indices=inst.probe_indices,
                hardy_norm=hp,
                numerator=numerator,
                ratio=numerator / hp,
                analytic_lower_bound=float(analytic),
                hardy_scaling=hp / m2k ** (1.0 - 1.0 / p),
            )
        )
    steps = np.diff([r.ratio for r in rows])
    monotone = bool(np.all(steps > 0))  # vacuously true for one stage
    accelerating = steps.size > 0 and monotone and bool(np.all(np.diff(steps) >= 0))
    return BlowupTable(
        p, weight, tuple(rows), monotone, "increasing" if accelerating else "flat-or-bounded"
    )

