"""Truncated maximal operators for Fejer and Riesz means, with weights.

Two operator shapes coexist: the concrete weighted forms (divide |R_n f|
by log(n+1), or multiply by log(n+1) and divide by a power of n+1) and
the generic form dividing by a nondecreasing weight phi(n) >= 1.  Both
are first-class weight kinds; the generic kinds get the phi >= 1 and
monotonicity validation, the concrete forms are exempt since log(2) < 1.
The Fejer maximal operator is the sup of the shifted means sigma_n, the
averages of S_1 f .. S_n f.  ``hp_to_lp_ratio`` measures one operator
against the Hardy quasi-norm of one input; the stage-by-stage blow-up
and its trend label are ``counterexample.blowup_table``'s.

Logarithms are natural throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functions import LevelFunction, require_positive
from .hardy import hardy_quasinorm, martingale_from_function
from .kernels import harmonic_sums
from .transform import CharacterSampler, forward

__all__ = [
    "WeightSpec",
    "MaximalReport",
    "OperatorSpec",
    "RatioReport",
    "sigma_star",
    "riesz_star",
    "weighted_riesz_star",
    "hp_to_lp_ratio",
]

_GENERIC_KINDS = ("unit", "power_log_sq", "custom_table")
_OPERATOR_FORMS = ("log", "power_log")
_BLOCK_CELLS = 65536  # cells per block of n in _stream_sup; 16384 would split a 512-step stream on 64 cells in two


@dataclass(frozen=True)
class WeightSpec:
    """Divisor applied to |R_n f| before the sup over n.

    Kinds:
      unit          1
      log           log(n+1)
      power_log     (n+1)^(1/p-2) / log(n+1)   (the multiplied-log form)
      power_log_sq  (n+1)^(1/p-2) * log(n+1)^(2*floor(1/2+p))
      custom_table  explicit per-n table (index n-1)
    """

    kind: str
    p: float | None = None
    table: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _GENERIC_KINDS + _OPERATOR_FORMS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind in ("power_log", "power_log_sq"):
            if self.p is None or not self.p > 0:
                raise ValueError(f"weight kind {self.kind!r} needs a positive exponent p")
            require_positive(self.p, f"weight kind {self.kind!r} exponent p")  # refuses +inf
        if self.kind == "custom_table" and not self.table:
            raise ValueError("custom_table weight needs a table")
        for i, v in enumerate(self.table or ()):
            if not math.isfinite(v):  # NaN would pass every phi >= 1 and monotonicity check
                raise ValueError(f"custom_table entry {i} is not finite, got {v}")

    @classmethod  # a second spelling of WeightSpec("log"), kept while bench/workloads.py calls it
    def log(cls) -> "WeightSpec":
        return cls("log")

    @classmethod
    def custom(cls, values: Sequence[float]) -> "WeightSpec":
        return cls("custom_table", table=tuple(float(v) for v in values))

    def divisors(self, n_max: int) -> np.ndarray:
        """Divisor table for n = 1..n_max (index n-1)."""
        n = np.arange(1, n_max + 1, dtype=np.float64)
        if self.kind == "unit":
            return np.ones(n_max)
        if self.kind == "log":
            return np.log(n + 1)
        if self.kind == "power_log":
            return (n + 1) ** (1.0 / self.p - 2.0) / np.log(n + 1)
        if self.kind == "power_log_sq":
            expo = 2 * math.floor(0.5 + self.p)
            return (n + 1) ** (1.0 / self.p - 2.0) * np.log(n + 1) ** expo
        if len(self.table) < n_max:
            raise ValueError(f"custom table covers n <= {len(self.table)}, need {n_max}")
        return np.asarray(self.table[:n_max], dtype=np.float64)

    def phi(self, n_max: int) -> np.ndarray:
        """:meth:`divisors`, checked against the phi >= 1 and monotonicity
        hypotheses on [1, n_max]; the operator-defining forms are exempt.
        Every weight read of the maximal operators and the blow-up probes
        goes through here or, on a prefix of one table, :meth:`_checked`."""
        return self._checked(self.divisors(n_max))

    def _checked(self, d: np.ndarray) -> np.ndarray:
        """The divisor table ``d`` for n = 1..len(d), checked as :meth:`phi` checks it."""
        n_max = len(d)
        if self.kind not in _OPERATOR_FORMS:
            if np.min(d) < 1.0 - 1e-12:
                raise ValueError(f"weight dips below 1 on [1, {n_max}] (min {np.min(d):.6g})")
            if np.any(np.diff(d) < -1e-12):
                raise ValueError(f"weight is not nondecreasing on [1, {n_max}]")
        return d


@dataclass(frozen=True, eq=False)
class MaximalReport:
    """Pointwise sup over the truncated index range, with per-point argmax."""

    operator: str
    n_max: int
    result: LevelFunction
    argmax: np.ndarray


def _stream_sup(
    f: LevelFunction,
    n_max: int,
    mode: str,
    divisors: np.ndarray | None,
    label: str,
) -> MaximalReport:
    """Shared sup over n of the truncated maximal operators.

    Both means are one weighted average of the partial sums S_n f from
    :meth:`CharacterSampler.partial_sums`: acc_n = acc_{n-1} + S_n / a_n and
    mean_n = |acc_n| / b_n, with a_n = 1, b_n = n for Fejer (the shifted
    mean sigma_n) and a_n = n, b_n = l_n for Riesz.  n_max is a count in the
    base's range; computation happens at the function's effective level
    (means of a level-R function are level-R functions for every n).

    The acc_n come in blocks of about _BLOCK_CELLS cells from
    :meth:`CharacterSampler._running_sums`, bit for bit a plain loop over n,
    and each block is scored once: a first-occurrence argmax per block, whose
    entry is the block's maximum, with a strict improvement across blocks
    keeps the per-step tie rule, so the result and argmax are bit-identical
    to that loop.  The sums are float64 when every modulus up to the
    effective level is 2 (so the characters are +-1) and the spectrum is
    finite and real, and complex128 otherwise; both give the same bytes.
    """
    f.base.require_count(n_max, f.base.depth, "n_max")
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    if mode == "sigma":
        weights, b = None, ns
    else:  # numpy divides by a real through its reciprocal: S_n * w_n == S_n / n (w_n + 0j for complex S_n)
        weights, b = 1.0 / ns, harmonic_sums(n_max)[1:]
    g = f.compress()
    sampler = CharacterSampler(g.base, g.level)
    coeffs = forward(g).coeffs
    # +-1 characters and a finite real spectrum: every imaginary part is an exact zero, so is every cross
    # term, and the float64 sums are the complex128 sums' real parts up to the sign of a zero, their moduli
    # bit for bit.  An inf is kept complex: there inf * 0 = NaN (a constant inf is an inf + 0j at level 0)
    if sampler.dtype == np.float64 and np.isfinite(coeffs).all() and not coeffs.imag.any():
        coeffs = coeffs.real
    total = g.base.orders[g.level]
    cols = np.arange(total)
    best = np.full(total, -1.0)
    arg = np.zeros(total, dtype=np.int64)
    for lo, acc in sampler._running_sums(n_max, _BLOCK_CELLS, coeffs, weights):
        block = slice(lo - 1, lo - 1 + len(acc))
        v = np.abs(acc)
        v /= b[block, None]
        if divisors is not None:
            v /= divisors[block, None]
        top = np.argmax(v, axis=0)
        peak = v[top, cols]  # the first-occurrence argmax holds the maximum, NaN included
        better = peak > best
        best[better] = peak[better]
        arg[better] = lo + top[better]
    reps = f.base.orders[f.level] // total
    result = LevelFunction._adopt(f.base, f.level, np.repeat(best, reps).astype(np.complex128))
    return MaximalReport(label, n_max, result, np.repeat(arg, reps))


def sigma_star(f: LevelFunction, n_max: int) -> MaximalReport:
    """sup over n = 1..n_max of |sigma_n f|, the shifted Fejer mean."""
    return _stream_sup(f, n_max, "sigma", None, "sigma_star")


def riesz_star(f: LevelFunction, n_max: int) -> MaximalReport:
    """sup over n = 1..n_max of |R_n f|."""
    return _stream_sup(f, n_max, "riesz", None, "riesz_star")


def weighted_riesz_star(f: LevelFunction, weight: WeightSpec, n_max: int) -> MaximalReport:
    """sup over n = 1..n_max of |R_n f| / weight(n), the weight read through
    :meth:`WeightSpec.phi`."""
    return _stream_sup(f, n_max, "riesz", weight.phi(n_max), f"riesz_star/{weight.kind}")


@dataclass(frozen=True)
class OperatorSpec:
    """Named truncated maximal operator, applyable to a function."""

    op: str  # sigma | riesz | weighted_riesz
    n_max: int
    weight: WeightSpec | None = None  # sigma and riesz take none, or the unit weight

    def __post_init__(self) -> None:
        if self.op not in ("sigma", "riesz", "weighted_riesz"):
            raise ValueError(f"unknown operator {self.op!r}")
        if self.op == "weighted_riesz" and self.weight is None:
            raise ValueError("weighted_riesz needs a weight")
        if self.op != "weighted_riesz" and self.weight is not None and self.weight.kind != "unit":
            raise ValueError(f"operator {self.op} takes no weight, got {self.weight.kind!r}")

    def apply(self, f: LevelFunction) -> MaximalReport:
        if self.op == "sigma":
            return sigma_star(f, self.n_max)
        if self.op == "riesz":
            return riesz_star(f, self.n_max)
        return weighted_riesz_star(f, self.weight, self.n_max)


@dataclass(frozen=True)
class RatioReport:
    """Operator-norm witnesses for one input.

    strong = ||Tf||_p / ||f||_Hp; weak = (sup_l l^p mu(|Tf| > l)) / ||f||_Hp^p.
    Both are invariant under scaling the input.
    """

    strong: float
    weak: float
    hardy_norm: float


def hp_to_lp_ratio(f: LevelFunction, operator: OperatorSpec, p: float) -> RatioReport:
    """Strong and weak operator ratios of f against the Hardy quasi-norm
    of the martingale of its conditional expectations.

    All three are taken on f at its effective level, so they are the same bit
    for bit at any level f is given at (the components above it equal f).
    """
    g = f.compress()
    hp = hardy_quasinorm(martingale_from_function(g), p)
    if hp == 0.0:
        raise ValueError("Hardy quasi-norm is zero")
    out = operator.apply(g).result
    return RatioReport(
        strong=out.lp_quasinorm(p) / hp,
        weak=out.weak_lp(p) / hp**p,
        hardy_norm=hp,
    )
