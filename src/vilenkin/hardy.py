"""Martingales on the cylinder filtration, Hardy quasi-norms, and atoms.

A martingale here is the finite adapted sequence of components at levels
0..N; the infinite index set of the classical theory truncates at the
base depth, which is exact for everything resolvable at that depth.
Only the assembly direction of the atomic characterization is provided:
given atoms and coefficients, build the martingale components and report
the coefficient budget.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .functions import LevelFunction, pointwise_sup, require_positive, require_seed
from .group import Cylinder, VilenkinBase, _check_same_base, json_field, make_base

__all__ = [
    "Martingale",
    "PAtom",
    "AtomCheck",
    "AtomAssembly",
    "martingale_from_function",
    "hardy_quasinorm",
    "validate_atom",
    "assemble_from_atoms",
    "random_atom",
    "CorpusSpec",
]

_ADAPTED_RTOL = 1e-8  # relative to the sup norm of the top component
_ATOM_TOL = 1e-9  # absolute, on each of the three atom conditions


@dataclass(frozen=True, eq=False)
class Martingale:
    """Adapted component sequence f^(0)..f^(N), one level each.

    Construction verifies adaptedness: averaging a component over the
    coarser cylinders must reproduce the previous component, up to a
    tolerance relative to the sup norm of the top component (which bounds
    every component of an adapted sequence, and sets the size of the
    rounding error of the averages).
    """

    base: VilenkinBase
    components: tuple[LevelFunction, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("martingale needs at least one component")
        for n, comp in enumerate(self.components):
            _check_same_base(self.base, comp.base)
            if comp.level != n:
                raise ValueError(f"component {n} resolved at level {comp.level}, expected {n}")
        tol = _ADAPTED_RTOL * float(np.max(np.abs(self.components[-1].values)))
        for n in range(len(self.components) - 1):
            stepped = self.components[n + 1].conditional_expectation(n)
            if not stepped.max_abs_diff(self.components[n]) <= tol:  # NaN in either is refused
                raise ValueError(f"components {n} and {n + 1} violate adaptedness")

    @classmethod
    def _adopt(cls, base: VilenkinBase, components: tuple[LevelFunction, ...]) -> "Martingale":
        """Keep ``components`` without the adaptedness check, as
        :meth:`LevelFunction._adopt` keeps an array without a copy: only for
        components adapted by construction, such as the tower's."""
        m = object.__new__(cls)
        object.__setattr__(m, "base", base)
        object.__setattr__(m, "components", components)
        return m

    @property
    def top_level(self) -> int:
        return len(self.components) - 1

    @property
    def top(self) -> LevelFunction:
        return self.components[-1]


def martingale_from_function(f: LevelFunction) -> Martingale:
    """Conditional expectations E_0 f .. E_N f of f at every level up to its own N,
    each taken from the one above it: one digit's step of ``conditional_expectation``.
    The tower makes them adapted, so the result skips the public check."""
    comps = [f]
    for n in reversed(range(f.level)):
        comps.append(comps[-1].conditional_expectation(n))
    return Martingale._adopt(f.base, tuple(reversed(comps)))


def hardy_quasinorm(m: Martingale, p: float) -> float:
    """L_p quasi-norm of the maximal function f* = sup_n |f^(n)|, which is
    ``pointwise_sup(m.components)`` at the top level."""
    return pointwise_sup(m.components).lp_quasinorm(p)


@dataclass(frozen=True)
class PAtom:
    """Mean-zero function supported on one cylinder with the sup-norm cap
    mu(I)^(-1/p)."""

    p: float
    support: Cylinder
    values: LevelFunction


@dataclass(frozen=True)
class AtomCheck:
    ok: bool
    failures: tuple[str, ...]
    mean_residual: float
    sup_excess: float
    off_support_max: float


def validate_atom(atom: PAtom) -> AtomCheck:
    """Check the three atom conditions; diagnostics name violations.

    Conditions: zero mean over the support, sup norm at most
    mu(I)^(-1/p), and vanishing off the support.
    """
    require_positive(atom.p, "atom exponent")
    f = atom.values
    _check_same_base(atom.support.base, f.base)
    level = max(f.level, atom.support.level)
    vals = f.at_level(level).values
    blk = atom.support.block(level)
    inside = vals[blk.start : blk.stop]
    outside = np.concatenate([vals[: blk.start], vals[blk.stop :]])
    outside_max = float(np.max(np.abs(outside), initial=0.0))  # 0 when the support is the whole group
    mean_residual = abs(inside.sum() / len(vals))  # the integral over the support
    bound = atom.support.measure ** (-1.0 / atom.p)
    sup_excess = float(np.max(np.abs(vals)) - bound) if vals.size else -bound
    failures = []
    if mean_residual > _ATOM_TOL:
        failures.append("mean_not_zero")
    if sup_excess > _ATOM_TOL:
        failures.append("sup_bound_exceeded")
    if outside_max > _ATOM_TOL:
        failures.append("support_violated")
    return AtomCheck(not failures, tuple(failures), float(mean_residual), sup_excess, outside_max)


@dataclass(frozen=True)
class AtomAssembly:
    component: LevelFunction
    budget: float  # sum of |mu_k|^p across the decomposition


def assemble_from_atoms(
    base: VilenkinBase,
    atoms: Sequence[PAtom],
    coeffs: Sequence[float],
    level: int,
) -> AtomAssembly:
    """Level-``level`` martingale component of the atomic series:
    the coefficient-weighted sum of each atom's level partial state."""
    if len(atoms) != len(coeffs):
        raise ValueError(f"{len(atoms)} atoms but {len(coeffs)} coefficients")
    base.require_level(level)
    total = base.orders[level]
    acc = np.zeros(total, dtype=np.complex128)
    budget = 0.0
    p = atoms[0].p if atoms else None
    for atom, mu in zip(atoms, coeffs):
        _check_same_base(base, atom.values.base)
        if atom.p != p:
            raise ValueError("atoms in one decomposition must share the exponent")
        acc += mu * atom.values.at_level(max(level, atom.values.level)).conditional_expectation(level).values
        budget += abs(mu) ** p
    return AtomAssembly(LevelFunction(base, level, acc), budget)


def _check_draw(p: float, depth: int, extra_depth: int, level_range: tuple[int, int]) -> None:
    """Refuse an exponent, extra depth or support-level range that no draw at ``depth`` accepts."""
    require_positive(p, "atom exponent")
    if extra_depth < 1:  # one cell per support would leave a zero-mean draw nothing to retry on
        raise ValueError(f"extra depth must be >= 1, got {extra_depth}")
    lo, hi = level_range
    if lo < 0:
        raise ValueError(f"support-level range [{lo}, {hi}] starts below level 0")
    if lo > min(hi, depth - extra_depth):
        raise ValueError(
            f"support-level range [{lo}, {hi}] is empty once capped at depth - extra_depth "
            f"= {depth - extra_depth} (depth {depth}, extra depth {extra_depth})"
        )


def random_atom(
    base: VilenkinBase,
    p: float,
    rng: np.random.Generator,
    extra_depth: int = 2,
    level_range: tuple[int, int] | None = None,
) -> PAtom:
    """Draw a saturated random atom.

    Support level uniform over ``level_range`` (``(L, L)`` fixes it at L),
    values i.i.d. uniform in [-1, 1] on the sub-cylinders ``extra_depth``
    levels below the support, projected to zero mean and rescaled so the
    sup norm hits mu(I)^(-1/p) exactly.  Two levels keeps dyadic draws
    nondegenerate (one level down a dyadic mean-zero draw is a Haar shape
    up to sign).  The exponent, extra depth and capped range go through
    ``_check_draw``, which a ``CorpusSpec`` also calls, so a corpus of no
    atoms is refused alike.
    """
    lo, hi = level_range or (0, base.depth - 1)
    _check_draw(p, base.depth, extra_depth, (lo, hi))
    support_level = int(rng.integers(lo, min(hi, base.depth - extra_depth) + 1))
    resolution = support_level + extra_depth
    support = Cylinder(base, support_level, 0)
    cells = base.orders[resolution] // base.orders[support_level]
    draw = rng.uniform(-1.0, 1.0, size=cells)
    draw -= draw.mean()
    while np.max(np.abs(draw)) < 1e-12:  # degenerate draw, retry
        draw = rng.uniform(-1.0, 1.0, size=cells)
        draw -= draw.mean()
    draw *= base.orders[support_level] ** (1.0 / p) / np.max(np.abs(draw))
    vals = np.zeros(base.orders[resolution], dtype=np.complex128)
    vals[:cells] = draw
    return PAtom(p, support, LevelFunction(base, resolution, vals))


@dataclass(frozen=True)
class CorpusSpec:
    """Reproducible description of a random atom corpus.

    The corpus is regenerated from this record alone, so two runs with
    the same spec produce identical atoms.
    """

    moduli: tuple[int, ...]
    depth: int
    p: float
    count: int
    seed: int
    support_level_min: int
    support_level_max: int
    extra_depth: int = 2

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"corpus count must be >= 0, got {self.count}")
        require_seed(self.seed)
        # base() first: an invalid base is refused before the range it caps is read
        _check_draw(self.p, self.base().depth, self.extra_depth, (self.support_level_min, self.support_level_max))

    def base(self) -> VilenkinBase:
        return make_base(self.moduli, self.depth)

    def generate(self) -> list[PAtom]:
        base = self.base()
        rng = np.random.default_rng(self.seed)
        return [
            random_atom(
                base,
                self.p,
                rng,
                level_range=(self.support_level_min, self.support_level_max),
                extra_depth=self.extra_depth,
            )
            for _ in range(self.count)
        ]

    def to_json(self) -> str:
        return json.dumps({"kind": "atom-corpus", "version": 1, **asdict(self)}, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CorpusSpec":
        raw = json.loads(text)
        if not isinstance(raw, dict) or raw.get("kind") != "atom-corpus":
            raise ValueError("not an atom corpus descriptor")
        field = functools.partial(json_field, raw, where="corpus descriptor")
        kinds = {"tuple[int, ...]": tuple, "float": float, "int": int}  # by annotation
        try:
            return cls(
                **{
                    f.name: field(f.name, kind=kinds[f.type])
                    for f in fields(cls)
                    if f.name in raw or f.default is MISSING  # a defaulted field is optional
                }
            )
        except KeyError as err:
            raise ValueError(f"corpus descriptor lacks the field {err}") from None

    @classmethod
    def from_path(cls, path: str | Path) -> "CorpusSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
