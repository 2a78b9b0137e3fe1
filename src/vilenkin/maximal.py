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

Past the input's last nonzero coefficient h, S_n f = f (Schipp, Wade and
Simon, *Walsh Series*, 1990), so every mean there is |c v_n + f| / phi(n)
for one c per cell, convex in v_n = 1 / n (Fejer) or 1 / l_n (Riesz).  The
running sums are taken only up to h; the unweighted operators score the two
ends of that tail, and the weighted ones score its ends, then drop each run
of n whose bound (the larger end numerator, plus a rounding slack, over the
run's least phi) is below the cell's best, halving what is left.  Inputs
must be finite.

Logarithms are natural throughout.
"""

from __future__ import annotations

import math
import sys
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
_TAIL_CELLS = 8192  # a run of the tail with at most this many open cells times rows is scored in full
_MARGIN = 16 * np.finfo(np.float64).eps  # rounding slack of the tail's bound, relative


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
        power = self.kind in ("power_log", "power_log_sq")
        for field, reads in (("p", power), ("table", self.kind == "custom_table")):
            if getattr(self, field) is not None and not reads:
                raise ValueError(f"weight kind {self.kind!r} takes no {field}")
        if power:
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
        if self.kind == "unit":
            return np.ones(n_max)
        n1 = np.arange(2, n_max + 2, dtype=np.float64)  # n + 1, exact
        if self.kind == "log":
            return np.log(n1)
        if self.kind in ("power_log", "power_log_sq"):
            with np.errstate(over="ignore"):  # an overflow is refused just below, in words, not as a warning
                power = n1 ** (1.0 / self.p - 2.0)
            over = np.flatnonzero(np.isinf(power))
            if over.size:
                raise ValueError(
                    f"p = {self.p} is too small for weight kind {self.kind!r}: "
                    f"(n + 1)^(1/p - 2) overflows float64 at n = {over[0] + 1}"
                )
            if self.kind == "power_log":
                return power / np.log(n1)
            exponent = 2 * math.floor(0.5 + self.p)  # 0 for p < 1/2, where the log factor is exactly 1
            return power * np.log(n1) ** exponent if exponent else power
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


def _fold(best: np.ndarray, arg: np.ndarray, vals: np.ndarray, ns: np.ndarray, cells: np.ndarray | None) -> None:
    """Fold the means ``vals`` (row i at n = ns[i], ascending) into the running
    best and argmax at ``cells`` (every cell if None): each column's first
    maximum enters where it beats the best or ties it at a smaller n, so the
    rows may come in any order and still give the first occurrence.  A NaN
    never enters."""
    top = np.argmax(vals, axis=0)
    peak = vals[top, np.arange(vals.shape[1])]  # the first-occurrence argmax holds the maximum, NaN included
    n = ns[top]
    old, at = (best, arg) if cells is None else (best[cells], arg[cells])
    better = (peak > old) | ((peak == old) & (n < at))
    where = better if cells is None else cells[better]
    best[where] = peak[better]
    arg[where] = n[better]


def _tail_sup(
    c: np.ndarray,
    f: np.ndarray,
    v: np.ndarray,
    phi: np.ndarray | None,
    lo: int,
    best: np.ndarray,
    arg: np.ndarray,
) -> None:
    """Fold mean_n = |c v_n + f| / phi_n for n = lo..len(v) into best and argmax.

    |c v + f| is convex in v and v_n falls with n, so on any run of n the
    numerator peaks at one of its ends.  Unweighted (``phi`` None), the two
    ends of the tail are scored and nothing else.  Weighted, a tail of at
    most _TAIL_CELLS cells times rows is scored in full; a longer one has
    its ends scored first, and then a run whose numerators at its ends are
    a and z holds no mean above (max(a, z) + slack) (1 + _MARGIN) / min phi
    over its inner rows, where slack = _MARGIN (|c| v_lo + |f|) covers the
    rounding of an inner numerator.  A cell leaves the run where that bound
    is below its best.  The runs still open are halved, depth first and left
    half first, each midpoint scored before its halves are bounded, and a run
    of at most _TAIL_CELLS open cells times inner rows is scored in full.
    A weighted result and argmax are those of a loop over every row, bit
    for bit.
    """
    hi = len(v)

    def score(rows: slice | list[int], cells: np.ndarray | None) -> np.ndarray:
        """Fold the rows at 0-based ``rows`` (ascending) and ``cells`` (every
        cell if None); return their numerators."""
        num = np.abs((c if cells is None else c[cells]) * v[rows, None] + (f if cells is None else f[cells]))
        ns = np.arange(rows.start + 1, rows.stop + 1) if isinstance(rows, slice) else np.add(rows, 1)
        _fold(best, arg, num if phi is None else num / phi[rows, None], ns, cells)
        return num

    if phi is not None and len(c) * (hi - lo + 1) <= _TAIL_CELLS:
        score(slice(lo - 1, hi), None)
        return
    a, z = score([lo - 1, hi - 1], None)
    if phi is None or hi - lo < 2:
        return
    slack = _MARGIN * (np.abs(c) * v[lo - 1] + np.abs(f))
    runs = [(lo, hi, np.arange(len(c)), a, z)]
    while runs:
        n1, n2, cells, a, z = runs.pop()
        bound = (np.maximum(a, z) + slack[cells]) * (1 + _MARGIN) / np.min(phi[n1 : n2 - 1])
        keep = ~(bound < best[cells])  # a NaN bound keeps its cell
        cells, a, z = cells[keep], a[keep], z[keep]
        if not cells.size:
            continue
        if len(cells) * (n2 - n1 - 1) <= _TAIL_CELLS:
            score(slice(n1, n2 - 1), cells)
            continue
        m = (n1 + n2) // 2
        (mid,) = score([m - 1], cells)
        runs += [run for run in ((m, n2, cells, mid, z), (n1, m, cells, a, mid)) if run[1] - run[0] > 1]


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
    (means of a level-R function are level-R functions for every n).  A
    non-finite input is refused by its first non-finite cell.

    The head n <= h, where h <= n_max is one past the last nonzero
    coefficient (0 for none), comes in blocks of about _BLOCK_CELLS cells
    from :meth:`CharacterSampler._running_sums`, bit for bit a plain loop
    over n, each block scored once by its first-occurrence argmax.  Past h,
    S_n f = f, so acc_n = c + u_n f with c = acc_h - u_h f and u_n = n
    (Fejer) or l_n (Riesz), and mean_n = |c v_n + f| with v_n = 1 / b_n:
    :func:`_tail_sup` scores the two ends of the tail for the unweighted
    operators, where convexity in v_n puts the maximum, and bounds, halves
    and prunes the tail for the weighted ones.  Ties keep the first n.  The
    sums are float64 when every modulus up to the effective level is 2 (so
    the characters are +-1) and the function is real with a finite spectrum,
    and complex128 otherwise; both give the same bytes.
    """
    f.base.require_count(n_max, f.base.depth, "n_max")
    if not np.isfinite(f.values).all():
        bad = np.flatnonzero(~np.isfinite(f.values))[0]
        raise ValueError(f"maximal operators need a finite input; cell {bad} holds {f.values[bad]}")
    g = f.compress()
    sampler = CharacterSampler(g.base, g.level)
    coeffs = forward(g).coeffs
    values = g.values
    # +-1 characters and a real function: every imaginary part of the spectrum is an exact zero, so is
    # every cross term, and the float64 sums are the complex128 sums' real parts up to the sign of a zero,
    # their moduli bit for bit.  A spectrum that overflows is kept complex: there inf * 0 = NaN
    if sampler.dtype == np.float64 and np.isfinite(coeffs).all() and not values.imag.any():
        coeffs, values = coeffs.real, values.real
    nonzero = np.flatnonzero(coeffs)
    h = min(n_max, int(nonzero[-1]) + 1 if nonzero.size else 0)  # S_n f = S_h f = f for every n >= h
    if mode == "sigma":
        weights, b, u_h = None, np.arange(1, n_max + 1, dtype=np.float64), float(h)
    else:  # numpy divides by a real through its reciprocal: S_n * w_n == S_n / n (w_n + 0j for complex S_n)
        harm = harmonic_sums(n_max)
        weights, b, u_h = 1.0 / np.arange(1, h + 1, dtype=np.float64), harm[1:], harm[h]
    total = g.base.orders[g.level]
    best = np.full(total, -1.0)
    arg = np.zeros(total, dtype=np.int64)
    acc_h = np.zeros(total, dtype=values.dtype)
    for lo, acc in sampler._running_sums(h, _BLOCK_CELLS, coeffs, weights):
        block = slice(lo - 1, lo - 1 + len(acc))
        v = np.abs(acc)
        v /= b[block, None]
        if divisors is not None:
            v /= divisors[block, None]
        _fold(best, arg, v, np.arange(lo, lo + len(acc)), None)
        acc_h = acc[-1]
    if h < n_max:
        _tail_sup(acc_h - u_h * values, values, 1.0 / b, divisors, h + 1, best, arg)
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
    divisors = None if weight.kind == "unit" else weight.phi(n_max)  # phi = 1 keeps riesz_star's tail rule
    return _stream_sup(f, n_max, "riesz", divisors, f"riesz_star/{weight.kind}")


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
    if hp < sys.float_info.min:  # a subnormal norm keeps too few significant bits for its ratios
        if not g.values.any():
            raise ValueError("Hardy quasi-norm is zero")
        raise ValueError(f"p = {p} is too small: the Hardy quasi-norm {hp:.3g} is below float64's normal range")
    out = operator.apply(g).result
    return RatioReport(
        strong=out.lp_quasinorm(p) / hp,
        weak=out.weak_lp(p) / hp**p,
        hardy_norm=hp,
    )
