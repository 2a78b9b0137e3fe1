"""Mixed-radix arithmetic on a truncated bounded Vilenkin group.

The group is the direct product Z_{m_0} x ... x Z_{m_{K-1}} of cyclic
groups with normalized Haar (counting) measure.  Points are digit tuples,
level-n cylinders fix the first n digits, and ranks index points
big-endian (x_0 most significant) so every cylinder occupies a contiguous
rank block at every finer level.

All types are immutable and every operation is pure, so values can be
shared freely across threads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

__all__ = [
    "VilenkinBase",
    "GroupPoint",
    "NatExpansion",
    "Cylinder",
    "make_base",
    "load_base",
    "zero_point",
    "unit_point",
    "rank_of",
    "point_of",
    "nat_expand",
    "nat_value",
    "coset_partition",
    "digit_rank_values",
    "subtract_rank_table",
]


SIZE_GUARD = 2**20  # cells: the largest base a command or a suite builds, since several sweeps are quadratic


@dataclass(frozen=True)
class VilenkinBase:
    """Digit moduli m_0..m_{K-1} with cumulative orders M_0..M_K.

    ``orders[k]`` counts the level-k cylinders; ``orders[k+1] = moduli[k] *
    orders[k]``.  Construct through :func:`make_base`, which validates.
    """

    moduli: tuple[int, ...]
    orders: tuple[int, ...]

    @property
    def depth(self) -> int:
        """Truncation depth K (number of digit levels)."""
        return len(self.moduli)

    @property
    def size(self) -> int:
        """Number of full-depth cells, orders[K]."""
        return self.orders[-1]

    @property
    def max_digit(self) -> int:
        """Largest modulus (the boundedness witness)."""
        return max(self.moduli)

    @property
    def is_dyadic(self) -> bool:
        return all(m == 2 for m in self.moduli)

    def require_level(self, level: int) -> None:
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside [0, {self.depth}]")

    def require_position(self, k: int) -> None:
        if not 0 <= k < self.depth:
            raise ValueError(f"position {k} outside [0, {self.depth})")

    def require_index(self, n: int, level: int | None = None) -> None:
        """``0 <= n < M_level`` (the full depth if None): character n is resolvable."""
        size = self.orders[self.depth if level is None else level]
        if not 0 <= n < size:
            raise ValueError(f"index {n} outside the representable range [0, {size})")

    def require_finer(self, level: int, than: int, noun: str) -> None:
        """``0 <= than <= level <= depth``: refinement goes up the levels, expectation down."""
        self.require_level(than)
        if level < than:
            raise ValueError(f"level {level} is coarser than the {noun} {than}")
        self.require_level(level)

    def require_count(self, n: int, level: int, noun: str, least: int = 1) -> None:
        """``least <= n <= M_level``: every count of terms (kernel, mean and sweep indices)."""
        if n < least:
            raise ValueError(f"{noun} must be >= {least}, got {n}")
        self.require_level(level)
        if n > self.orders[level]:
            raise ValueError(f"index {n} not resolvable at level {level} (max {self.orders[level]})")

    def require_size(self) -> None:
        """At most ``SIZE_GUARD`` cells, checked before any per-cell array is built."""
        if self.size > SIZE_GUARD:
            raise ValueError(f"refusing to run: base has {self.size} cells, guard is {SIZE_GUARD}")

    def __repr__(self) -> str:  # compact: bases show up in many reprs
        return f"VilenkinBase({list(self.moduli)})"


def make_base(moduli: Sequence[int], depth: int | None = None) -> VilenkinBase:
    """Build a truncated base from a modulus pattern.

    If ``depth`` exceeds the pattern length the pattern repeats
    periodically, so ``make_base([2, 3], 5)`` gives (2,3,2,3,2).
    Every modulus must be at least 2.
    """
    mods = tuple(int(m) for m in moduli)
    if not mods:
        raise ValueError("need at least one modulus")
    if depth is None:
        depth = len(mods)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth != len(mods):
        mods = tuple(itertools.islice(itertools.cycle(mods), depth))
    bad = [m for m in mods if m < 2]
    if bad:
        raise ValueError(f"invalid Vilenkin base: every modulus must be >= 2, got {bad[0]}")
    orders = [1]
    for m in mods:
        orders.append(orders[-1] * m)
    return VilenkinBase(mods, tuple(orders))


def json_field(raw: dict[str, Any], key: str, where: str, kind: type = int) -> Any:
    """``raw[key]`` as ``kind``: int, float (an integer also does) or tuple of ints.

    Any other JSON value, a string "3", null or a bool included, is a
    ValueError that names the field.  A missing key raises KeyError.
    """
    value = raw[key]
    items = value if kind is tuple and isinstance(value, list) else [value]
    numbers = (int, float) if kind is float else (int,)
    typed = all(isinstance(v, numbers) and not isinstance(v, bool) for v in items)
    if not typed or (kind is tuple) != isinstance(value, list):
        noun = {int: "an integer", float: "a number", tuple: "a list of integers"}[kind]
        raise ValueError(f"{where} field {key!r} must be {noun}, got {json.dumps(value)}")
    return kind(value)


def load_base(path: str | Path) -> VilenkinBase:
    """Read a base from a JSON config: {"moduli": [...], "depth": K}."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or "moduli" not in raw:
        raise ValueError(f"config {path} is not a JSON object with a 'moduli' entry")
    where = f"config {path}"
    depth = json_field(raw, "depth", where) if raw.get("depth") is not None else None
    return make_base(json_field(raw, "moduli", where, tuple), depth)


@dataclass(frozen=True)
class GroupPoint:
    """A group element: one digit per level, each below its modulus."""

    base: VilenkinBase
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.base.depth:
            raise ValueError(
                f"point has {len(self.coords)} digits, base depth is {self.base.depth}"
            )
        for k, (c, m) in enumerate(zip(self.coords, self.base.moduli)):
            if not 0 <= c < m:
                raise ValueError(f"digit {c} at position {k} not in [0, {m})")

    def __add__(self, other: "GroupPoint") -> "GroupPoint":
        """Digit-wise addition modulo the per-level modulus."""
        _check_same_base(self.base, other.base)
        coords = tuple((a + b) % m for a, b, m in zip(self.coords, other.coords, self.base.moduli))
        return GroupPoint(self.base, coords)

    def __sub__(self, other: "GroupPoint") -> "GroupPoint":
        """Inverse of ``+``."""
        _check_same_base(self.base, other.base)
        coords = tuple((a - b) % m for a, b, m in zip(self.coords, other.coords, self.base.moduli))
        return GroupPoint(self.base, coords)


def zero_point(base: VilenkinBase) -> GroupPoint:
    return GroupPoint(base, (0,) * base.depth)


def unit_point(base: VilenkinBase, k: int, value: int = 1) -> GroupPoint:
    """The point value*e_k: a single nonzero digit at position k."""
    base.require_position(k)
    coords = [0] * base.depth
    coords[k] = value
    return GroupPoint(base, tuple(coords))


def _check_same_base(a: VilenkinBase, b: VilenkinBase) -> None:
    if a is not b and a != b:  # identity first: one base object is shared by a whole family
        raise ValueError("mismatched bases")


def rank_of(x: GroupPoint, level: int) -> int:
    """Big-endian mixed-radix rank of x's first ``level`` digits.

    x_0 is the most significant digit, so the points of one level-n
    cylinder form a contiguous rank block at every level >= n.
    """
    x.base.require_level(level)
    r = 0
    for j in range(level):
        r = r * x.base.moduli[j] + x.coords[j]
    return r


def point_of(base: VilenkinBase, rank: int, level: int) -> GroupPoint:
    """Inverse of :func:`rank_of`; digits beyond ``level`` are zero."""
    base.require_level(level)
    base.require_index(rank, level)
    coords = [0] * base.depth
    r = rank
    for j in reversed(range(level)):
        coords[j] = r % base.moduli[j]
        r //= base.moduli[j]
    return GroupPoint(base, tuple(coords))


@dataclass(frozen=True)
class NatExpansion:
    """Mixed-radix expansion n = sum n_j * M_j (n_0 least significant)."""

    base: VilenkinBase
    n: int
    digits: tuple[int, ...]
    order: int  # position of the highest nonzero digit, 0 for n = 0


def nat_expand(base: VilenkinBase, n: int) -> NatExpansion:
    base.require_index(n)
    digits = tuple((n // base.orders[j]) % base.moduli[j] for j in range(base.depth))
    order = 0
    for j, d in enumerate(digits):
        if d:
            order = j
    return NatExpansion(base, n, digits, order)


def nat_value(base: VilenkinBase, digits: Sequence[int]) -> int:
    """Reassemble an integer from its mixed-radix digits."""
    return sum(d * base.orders[j] for j, d in enumerate(digits))


@dataclass(frozen=True)
class Cylinder:
    """Level-n coordinate neighbourhood: the points sharing the first n
    digits of the rank-``rank`` point at that level."""

    base: VilenkinBase
    level: int
    rank: int

    def __post_init__(self) -> None:
        self.base.require_level(self.level)
        self.base.require_index(self.rank, self.level)

    @classmethod
    def at(cls, point: GroupPoint, level: int) -> "Cylinder":
        return cls(point.base, level, rank_of(point, level))

    @property
    def anchor(self) -> GroupPoint:
        """The cylinder's point with zero digits beyond its level."""
        return point_of(self.base, self.rank, self.level)

    @property
    def measure(self) -> float:
        return 1.0 / self.base.orders[self.level]

    def block(self, level: int) -> range:
        """Contiguous rank block this cylinder occupies at a finer level."""
        self.base.require_finer(level, self.level, "cylinder level")
        width = self.base.orders[level] // self.base.orders[self.level]
        return range(self.rank * width, (self.rank + 1) * width)

    def contains(self, point: GroupPoint) -> bool:
        _check_same_base(self.base, point.base)
        return rank_of(point, self.level) == self.rank


def coset_partition(base: VilenkinBase, level: int) -> list[Cylinder]:
    """Disjoint cylinder family tiling the complement of the zero
    level-``level`` cylinder.

    First the pair-anchored family: for k < l < level and nonzero digits
    x_k, x_l, the level-(l+1) cylinder anchored at x_k e_k + x_l e_l
    (points whose first two nonzero digits sit at k and l).  Then the
    single-anchored family: for k < level and nonzero x_k, the
    level-``level`` cylinder anchored at x_k e_k (points with exactly one
    nonzero digit below ``level``).  The single family runs from k = 0;
    starting it at k = 1 would leave the first-digit-only points
    uncovered.
    """
    if not 1 <= level <= base.depth:
        raise ValueError(f"partition level {level} outside [1, {base.depth}]")
    cells: list[Cylinder] = []
    for k in range(level - 1):
        for xk in range(1, base.moduli[k]):
            for l in range(k + 1, level):
                for xl in range(1, base.moduli[l]):
                    anchor = unit_point(base, k, xk) + unit_point(base, l, xl)
                    cells.append(Cylinder.at(anchor, l + 1))
    for k in range(level):
        for xk in range(1, base.moduli[k]):
            cells.append(Cylinder.at(unit_point(base, k, xk), level))
    return cells


def digit_rank_values(base: VilenkinBase, level: int) -> list[np.ndarray]:
    """Per-digit value arrays by rank: out[j][r] is digit j of the rank-r
    point at the given level."""
    base.require_level(level)
    total = base.orders[level]
    ranks = np.arange(total)
    out = []
    for j in range(level):
        place = total // base.orders[j + 1]
        out.append((ranks // place) % base.moduli[j])
    return out


def subtract_rank_table(base: VilenkinBase, level: int, rank: int) -> np.ndarray:
    """Ranks of (x - t) for the fixed point x of the given rank and every
    rank-t point, at one level.  Used for group-domain convolution."""
    digit_values = digit_rank_values(base, level)
    total = base.orders[level]
    acc = np.zeros(total, dtype=np.int64)
    x = point_of(base, rank, level)
    for j in range(level):
        d = (x.coords[j] - digit_values[j]) % base.moduli[j]
        acc = acc * base.moduli[j] + d
    return acc
