"""Step functions on the group with exact integration and quasi-norms.

A :class:`LevelFunction` stores one complex value per level-N cylinder.
Refining to a deeper level replicates values and changes no integral or
norm, so every function measurable at its level is represented exactly.

Instances are immutable (the value array is marked read-only) and all
operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .group import Cylinder, VilenkinBase, _check_same_base

__all__ = [
    "LevelFunction",
    "constant",
    "indicator",
    "pointwise_sup",
]


def adopted_level_array(base: VilenkinBase, level: int, array: np.ndarray, noun: str) -> np.ndarray:
    """``array`` itself, marked read-only: one complex128 entry per level
    cylinder, C-contiguous.  Anything else is refused, never converted."""
    base.require_level(level)
    if array.shape != (base.orders[level],):
        raise ValueError(f"expected {base.orders[level]} {noun} at level {level}, got shape {array.shape}")
    if array.dtype != np.complex128:
        raise ValueError(f"expected complex128 {noun}, got {array.dtype}")
    if not array.flags.c_contiguous:
        raise ValueError(f"expected C-contiguous {noun}")
    array.setflags(write=False)
    return array


def frozen_level_array(base: VilenkinBase, level: int, array: np.ndarray, noun: str) -> np.ndarray:
    """A read-only complex copy of ``array``, one entry per level cylinder:
    the caller keeps its array, and writes to it never reach the copy."""
    return adopted_level_array(base, level, np.array(array, dtype=np.complex128), noun)


def require_positive(value: float, noun: str) -> None:
    """Refuse ``not value > 0``, so zero, negatives and NaN alike, and then +inf."""
    if not value > 0:
        raise ValueError(f"{noun} must be positive, got {value}")
    if value == math.inf:
        raise ValueError(f"{noun} must be finite, got {value}")


def require_seed(seed: int) -> None:
    """Refuse a negative seed, which numpy's generators reject in words that name no field."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True, eq=False)
class LevelFunction:
    """Complex function resolved at ``level``: one value per cylinder rank."""

    base: VilenkinBase
    level: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", frozen_level_array(self.base, self.level, self.values, "values"))

    @classmethod
    def _adopt(cls, base: VilenkinBase, level: int, values: np.ndarray) -> "LevelFunction":
        """Keep ``values`` without a copy (see :func:`adopted_level_array`).

        Only for an array the caller has just allocated and that nothing
        else refers to: it is marked read-only and becomes the function's.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "base", base)
        object.__setattr__(f, "level", level)
        object.__setattr__(f, "values", adopted_level_array(base, level, values, "values"))
        return f

    # ------------------------------------------------------------------
    # resolution changes

    def at_level(self, level: int) -> "LevelFunction":
        """Exact refinement to a deeper level (value replication)."""
        if level == self.level:
            return self
        self.base.require_finer(level, self.level, "function level")
        reps = self.base.orders[level] // self.base.orders[self.level]
        return LevelFunction._adopt(self.base, level, np.repeat(self.values, reps))

    def effective_level(self) -> int:
        """Coarsest level at which the stored values are constant on blocks.

        The values are read-only, so the scan runs once per function and its
        result is kept; a compressed function starts with its own level kept.
        """
        level = self.__dict__.get("_effective_level")
        if level is not None:
            return level
        level = self.level
        vals = self.values
        while level > 0:
            m = self.base.moduli[level - 1]
            blocks = vals.reshape(-1, m)
            if not (blocks[:, 1:] == blocks[:, :1]).all():  # a column need not meet itself
                break
            vals = blocks[:, 0]
            level -= 1
        object.__setattr__(self, "_effective_level", level)
        return level

    def compress(self) -> "LevelFunction":
        """Equivalent representation at the effective level."""
        lv = self.effective_level()
        if lv == self.level:
            return self
        step = self.base.orders[self.level] // self.base.orders[lv]
        g = LevelFunction(self.base, lv, self.values[::step])
        object.__setattr__(g, "_effective_level", lv)
        return g

    # ------------------------------------------------------------------
    # integration and norms

    def integrate(self) -> complex:
        """Haar integral; exact for level-measurable functions."""
        return complex(np.mean(self.values))

    def lp_quasinorm(self, p: float) -> float:
        """(integral of |f|^p)^(1/p) for any p > 0."""
        require_positive(p, "p")
        mean = np.mean(np.abs(self.values) ** p)
        if not np.isfinite(mean):
            raise ValueError("values are not finite (or |f|^p overflows float64)")
        return float(mean ** (1.0 / p))

    def weak_lp(self, p: float) -> float:
        """sup over lambda > 0 of lambda^p * mu(|f| > lambda).

        |f| takes finitely many values, so the supremum is attained in the
        limit from below at a distinct value v and equals
        max_v v^p * mu(|f| >= v).  No outer 1/p root is applied.
        """
        require_positive(p, "p")
        mods = np.abs(self.values)
        uniq, counts = np.unique(mods, return_counts=True)
        if not np.isfinite(uniq[-1]):  # NaN and inf sort last
            raise ValueError("values are not finite")
        if uniq[-1] == 0.0:
            return 0.0
        # mu(|f| >= uniq[i]) via a reversed cumulative count
        ge = np.cumsum(counts[::-1])[::-1] / mods.size
        positive = uniq > 0
        return float(np.max(uniq[positive] ** p * ge[positive]))

    def weak_lp_at(self, p: float, threshold: float) -> float:
        """Threshold form lambda * mu(|f| >= lambda)^(1/p)."""
        require_positive(p, "p")
        require_positive(threshold, "threshold")
        measure = np.count_nonzero(np.abs(self.values) >= threshold) / self.values.size
        return float(threshold * measure ** (1.0 / p))

    def conditional_expectation(self, level: int) -> "LevelFunction":
        """Average over each level-``level`` cylinder; result at that level.

        The tower property, one digit at a time from the function's own level
        (where it is the function): E_n is the sum of the m_n strided columns
        of E_{n+1}, divided by m_n, so a walk down from level N reads < 2 M_N cells.
        """
        self.base.require_finer(self.level, level, "conditional-expectation level")
        f = self
        for n in reversed(range(level, self.level)):
            m = self.base.moduli[n]
            cols = f.values.reshape(-1, m)
            f = LevelFunction._adopt(self.base, n, sum((cols[:, j] for j in range(1, m)), cols[:, 0]) / m)
        return f

    # ------------------------------------------------------------------
    # pointwise algebra (operands auto-refine to the common level)

    def _align(self, other: "LevelFunction") -> tuple["LevelFunction", "LevelFunction"]:
        _check_same_base(self.base, other.base)
        lv = max(self.level, other.level)
        return self.at_level(lv), other.at_level(lv)

    def __add__(self, other: "LevelFunction") -> "LevelFunction":
        a, b = self._align(other)
        return LevelFunction(a.base, a.level, a.values + b.values)

    def __radd__(self, other: "LevelFunction | int") -> "LevelFunction":
        if isinstance(other, int) and other == 0:  # lets builtin sum() fold families
            return self
        return self.__add__(other)

    def __sub__(self, other: "LevelFunction") -> "LevelFunction":
        a, b = self._align(other)
        return LevelFunction(a.base, a.level, a.values - b.values)

    def __mul__(self, scalar: complex) -> "LevelFunction":
        return LevelFunction(self.base, self.level, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "LevelFunction":
        return LevelFunction(self.base, self.level, -self.values)

    def modulus(self) -> "LevelFunction":
        """|f| as a (real-valued) function."""
        return LevelFunction(self.base, self.level, np.abs(self.values))

    def max_abs_diff(self, other: "LevelFunction") -> float:
        a, b = self._align(other)
        return float(np.max(np.abs(a.values - b.values)))


def constant(base: VilenkinBase, level: int, value: complex = 1.0) -> LevelFunction:
    return LevelFunction(base, level, np.full(base.orders[level], value, dtype=np.complex128))


def indicator(cell: Cylinder, level: int | None = None, amplitude: complex = 1.0) -> LevelFunction:
    """Indicator of a cylinder, optionally resolved deeper and scaled."""
    if level is None:
        level = cell.level
    blk = cell.block(level)
    vals = np.zeros(cell.base.orders[level], dtype=np.complex128)
    vals[blk.start : blk.stop] = amplitude
    return LevelFunction(cell.base, level, vals)


def pointwise_sup(functions: Sequence[LevelFunction] | Iterable[LevelFunction]) -> LevelFunction:
    """Pointwise maximum of the moduli |f| of a family, at its finest level.

    The family is folded in order of level, and the running maximum is
    refined only when the level goes up.  ``max`` is exact, so the result
    does not depend on the order of the family and equals the maximum of
    the moduli refined to the top, bit for bit.
    """
    fs = sorted(functions, key=lambda f: f.level)
    if not fs:
        raise ValueError("empty family")
    base, level = fs[0].base, fs[0].level
    acc = np.abs(fs[0].values)
    for f in fs[1:]:
        _check_same_base(base, f.base)
        if f.level > level:
            acc = np.repeat(acc, base.orders[f.level] // base.orders[level])
            level = f.level
        np.maximum(acc, np.abs(f.values), out=acc)
    return LevelFunction(base, level, acc)

