"""Dirichlet, Fejer, and Riesz logarithmic kernels and means.

Summation-convention note: the classical definitions average Dirichlet
kernels either as (1/n) sum_{k=0}^{n-1} D_k or as (1/n) sum_{k=1}^{n} D_k.
The two differ by exactly D_n / n.  The Abel rearrangements relating
Riesz means to Fejer means, and the dyadic closed form, are exact
identities only under the shifted (k = 1..n) convention; desk expansion
at small n fixes this once and the unit tests pin it.  Shifted is the
default, and the only form the sweeps stream; ``fejer_kernel`` and
``fejer_mean`` also take the zero-based form.

Every spectral-weight synthesis of a kernel, mean or blow-up probe goes
through ``_window``, which works in the transform's digit order and never
builds a Paley-order table.  Every sample-domain sum (here and in the
maximal and counterexample modules) comes from :class:`CharacterSampler`:
the stream :meth:`CharacterSampler.partial_sums`, or the blocks of running
sums of :meth:`CharacterSampler._running_sums`, the one engine that the
sweeps, the Abel routes and the maximal operators share; each route is the
other's oracle.  The stream is exact on dyadic and mod-4 digits and updates
psi_n carry by carry; its kernels D_n are float64 when every modulus up to
the level is 2.  The sweeps and ``_riesz_abel`` take their Fejer sums
sum_{k<=n} S_k from the engine: the sweeps reduce a whole block in a few
calls, bit for bit the per-row sums, and ``_riesz_abel`` adds row by row,
since its one complex-by-real division per cell per step is the cost there.
The two routes of the public kernels and means, ``_window`` and
``_riesz_abel``, make the index check and build the coefficient table, so
each public function is one call.  One kernel stream serves every cylinder
level of the localization sweeps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .functions import LevelFunction
from .group import Cylinder, GroupPoint, VilenkinBase, coset_partition, subtract_rank_table, unit_point
from .transform import CharacterSampler, _staged, forward

__all__ = [
    "KernelConvention",
    "harmonic_sums",
    "dirichlet",
    "fejer_kernel",
    "gat_closed_form",
    "gat_kernel",
    "riesz_kernel",
    "riesz_kernel_abel",
    "partial_sum",
    "all_partial_sums",
    "fejer_mean",
    "riesz_mean",
    "riesz_mean_abel",
    "convolve",
    "kernel_integral_sweep",
    "KernelIntegralSweep",
    "localization_sweep",
    "localization_sweeps",
    "LocalizationCell",
    "LocalizationSweep",
]


def harmonic_sums(n_max: int) -> np.ndarray:
    """Read-only partial sums l_0..l_{n_max}, l_n = 1 + 1/2 + ... + 1/n, with l_0 = 0 as sentinel."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    vals = np.empty(n_max + 1)
    vals[0] = 0.0
    np.cumsum(1.0 / np.arange(1, n_max + 1), out=vals[1:])
    vals.setflags(write=False)
    return vals


class KernelConvention(enum.Enum):
    """Index range of the Dirichlet-kernel average."""

    ZERO_BASED = "zero_based"  # (1/n) sum_{k=0}^{n-1}
    SHIFTED = "shifted"  # (1/n) sum_{k=1}^{n}


def _window(
    base: VilenkinBase,
    level: int,
    n: int,
    f: LevelFunction | None = None,
    weights: Callable | None = None,
    noun: str = "kernel index",
    least: int = 1,
) -> LevelFunction:
    """Synthesize sum_{j<n} w_j c_j psi_j with w = ``weights(j)`` (ones if None).

    c is the spectrum of ``f`` (all ones if None: a kernel) in the transform's
    digit order: ``_staged``'s table, axes (k_0, ..., k_{N-1}), divided by M_N
    as ``forward`` divides it, weighted and truncated in place at each entry's
    Paley index j = sum_i k_i M_i and synthesized from there, so no Paley-order
    table is built.  Entries with j >= n are set to +0.0, never multiplied by 0,
    so the kernels keep unsigned zeros.
    """
    base.require_count(n, level, noun, least)
    moduli = base.moduli[:level]
    if f is None:
        coeffs = np.ones(moduli, dtype=np.complex128)
    elif level:
        coeffs = _staged(f.values, moduli, -1)
        coeffs /= base.orders[level]
    else:  # no digit to transform: forward's level-0 spectrum is a copy
        coeffs = f.values.copy()
    j = np.zeros((), dtype=np.intp)  # the Paley index table, built from the last axis out
    for m, m_i in zip(reversed(moduli), reversed(base.orders[:level])):
        j = np.add.outer(np.arange(0, m * m_i, m_i), j)
    if weights is not None:
        coeffs *= weights(j)
    np.putmask(coeffs, j >= n, 0.0)
    del j  # freed before the synthesis runs
    return LevelFunction._adopt(base, level, _staged(coeffs, moduli, +1).ravel())


def dirichlet(base: VilenkinBase, n: int, level: int) -> LevelFunction:
    """Dirichlet kernel D_n: the sum of the first n characters; D_0 = 0."""
    return _window(base, level, n, least=0)


def _mean_weights(n: int, convention: KernelConvention, j: np.ndarray) -> np.ndarray:
    """Per-character weights of the averaged kernel at the indices j < n.

    sum_{k=a}^{b} D_k collects character j exactly (count of k > j in the
    range) times, so the average has closed spectral weights.
    """
    w = np.subtract(n if convention is KernelConvention.SHIFTED else n - 1, j, dtype=np.float64)  # exact
    w /= n
    return w


def _riesz_weights(harm: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Per-character weights (l_n - l_j) / l_n of the Riesz kernel at the indices j,
    read from ``harm`` = l_0..l_n: every j of the level for the Riesz kernel and
    mean, and M_{2k} + i for the blow-up probes (``counterexample._weighted_probe``).
    An index past n reads l_n, so its weight is the 0 that the kernel gives it."""
    w = np.asarray(harm.take(j, mode="clip"))  # an array at level 0 too, for the steps in place
    w /= harm[-1]
    return np.subtract(1.0, w, out=w)


def fejer_kernel(
    base: VilenkinBase,
    n: int,
    level: int,
    convention: KernelConvention = KernelConvention.SHIFTED,
) -> LevelFunction:
    """Average of Dirichlet kernels under the chosen convention."""
    return _window(base, level, n, weights=lambda j: _mean_weights(n, convention, j))


def gat_closed_form(base: VilenkinBase, exponent: int, x: GroupPoint) -> float:
    """Closed form of the shifted dyadic Fejer kernel at n = 2^exponent.

    With t the position of x's first nonzero digit:
      (2^A + 1) / 2   if x has no nonzero digit below A (x in I_A),
      2^(t-1)         if x agrees with e_t on all digits below A,
      0               otherwise.
    """
    if not base.is_dyadic:
        raise ValueError("closed form requires an all-2 base")
    base.require_level(exponent)
    t = next((j for j, c in enumerate(x.coords) if c), None)
    if t is None or t >= exponent:
        return (2.0**exponent + 1.0) / 2.0
    if any(x.coords[j] for j in range(t + 1, exponent)):
        return 0.0
    return 2.0 ** (t - 1)


def gat_kernel(base: VilenkinBase, exponent: int, level: int) -> LevelFunction:
    """The dyadic closed form sampled on all level cylinders, one cylinder
    block per case: 2^(t-1) on the level-A cylinder of e_t for each t < A,
    then (2^A + 1) / 2 on the zero level-A cylinder, and 0 elsewhere."""
    base.require_finer(level, exponent, "exponent")
    if not base.is_dyadic:
        raise ValueError("closed form requires an all-2 base")
    vals = np.zeros(base.orders[level], dtype=np.complex128)
    for t in range(exponent):
        block = Cylinder.at(unit_point(base, t), exponent).block(level)
        vals[block.start : block.stop] = 2.0 ** (t - 1)
    zero = Cylinder(base, exponent, 0).block(level)
    vals[zero.start : zero.stop] = (2.0**exponent + 1.0) / 2.0
    return LevelFunction(base, level, vals)


def riesz_kernel(base: VilenkinBase, n: int, level: int) -> LevelFunction:
    """Riesz logarithmic kernel L_n = (1/l_n) sum_{k=1}^{n} D_k / k.

    Character j is collected with total weight (l_n - l_j)/l_n, which is
    what gets synthesized here; the literal sum is the test oracle.
    """
    return _window(base, level, n, weights=lambda j: _riesz_weights(harmonic_sums(n), j))


def riesz_kernel_abel(base: VilenkinBase, n: int, level: int) -> LevelFunction:
    """Abel-transform route: (1/l_n) sum_{j=1}^{n-1} K_j/(j+1) + K_n/l_n.

    Exact identity with the shifted Fejer convention; agreement with
    :func:`riesz_kernel` is asserted by the verification suite.
    """
    return _riesz_abel(base, level, n)


def _riesz_abel(base: VilenkinBase, level: int, n: int, f: LevelFunction | None = None) -> LevelFunction:
    """Shared Abel sum over the engine's Fejer sums sum_{k<=j} S_k of ``f`` (S_k = D_k if None)."""
    base.require_count(n, level, "kernel index" if f is None else "mean index")
    coeffs = None if f is None else forward(f).coeffs
    acc = 0.0  # sum_{j<n} sigma_j/(j+1)
    for lo, block in CharacterSampler(base, level)._running_sums(n, _SWEEP_CELLS, coeffs):
        for j, cum in enumerate(block, start=lo):
            if j < n:  # cum = sum_{k<=j} S_k = j sigma_j
                acc = acc + cum / (j * (j + 1))
    return LevelFunction(base, level, (acc + cum / n) / harmonic_sums(n)[n])


def partial_sum(f: LevelFunction, n: int) -> LevelFunction:
    """Fourier partial sum S_n f (S_0 f = 0), synthesized exactly."""
    return _window(f.base, f.level, n, f, noun="partial-sum index", least=0)


def all_partial_sums(f: LevelFunction) -> list[LevelFunction]:
    """Every S_k f for k = 0..M_N via cumulative sums in the sample domain.

    Quadratic time and memory in M_N; meant for small levels.
    """
    total = f.base.orders[f.level]
    sums = CharacterSampler(f.base, f.level).partial_sums(total, forward(f).coeffs)
    out = [LevelFunction(f.base, f.level, np.zeros(total, dtype=np.complex128))]
    out.extend(LevelFunction(f.base, f.level, s) for s in sums)
    return out


def fejer_mean(
    f: LevelFunction,
    n: int,
    convention: KernelConvention = KernelConvention.SHIFTED,
) -> LevelFunction:
    """Average of partial sums under the chosen convention."""
    return _window(f.base, f.level, n, f, lambda j: _mean_weights(n, convention, j), "mean index")


def riesz_mean(f: LevelFunction, n: int) -> LevelFunction:
    """Riesz logarithmic mean (1/l_n) sum_{k=1}^{n} S_k f / k."""
    return _window(f.base, f.level, n, f, lambda j: _riesz_weights(harmonic_sums(n), j), "mean index")


def riesz_mean_abel(f: LevelFunction, n: int) -> LevelFunction:
    """Abel route for the Riesz mean:
    (1/l_n) sum_{j=1}^{n-1} sigma_j f / (j+1) + sigma_n f / l_n
    with shifted Fejer means; exact-identity partner of :func:`riesz_mean`.
    """
    return _riesz_abel(f.base, f.level, n, f)


def convolve(f: LevelFunction, g: LevelFunction) -> LevelFunction:
    """Group convolution (f * g)(x) = integral of f(t) g(x - t) dmu(t).

    Evaluated literally through rank subtraction, O(M^2); this is the
    sample-domain partner that ties kernels to means in the tests.
    """
    f, g = f._align(g)
    total = f.base.orders[f.level]
    out = np.empty(total, dtype=np.complex128)
    for r in range(total):
        out[r] = f.values @ g.values[subtract_rank_table(f.base, f.level, r)]
    return LevelFunction(f.base, f.level, out / total)


# ----------------------------------------------------------------------
# exhaustive kernel sweeps

# Cells per block of the sweeps and the Abel routes.  Smaller than
# maximal._BLOCK_CELLS: a sweep block has |.| temporaries of its size beside
# it, and 16384 cells already hold 12-16 kernels at the sweep-dense sizes,
# enough to amortize numpy's per-call cost; 65536-cell blocks raised that
# workload's peak RSS from 37.9 to 40.4 MiB and its wall time not at all.
_SWEEP_CELLS = 16384


@dataclass(frozen=True)
class KernelIntegralSweep:
    """Per-n integrals of |K_n| (shifted) with their running maximum."""

    convention: KernelConvention  # always SHIFTED; bench/test_selftest.py rebuilds a sweep from it
    integrals: np.ndarray  # index n-1 holds the integral of |K_n|
    running_max: np.ndarray


def kernel_integral_sweep(base: VilenkinBase, level: int, n_max: int) -> KernelIntegralSweep:
    """Integral of the shifted |K_n| for every n = 1..n_max in one streaming pass."""
    base.require_count(n_max, level, "n_max")
    integrals = np.empty(n_max, dtype=np.float64)
    total = base.orders[level]
    for lo, block in CharacterSampler(base, level)._running_sums(n_max, _SWEEP_CELLS):
        ns = np.arange(lo, lo + len(block), dtype=np.float64)
        integrals[lo - 1 : lo - 1 + len(block)] = np.abs(block).sum(axis=1) / total / ns
    return KernelIntegralSweep(KernelConvention.SHIFTED, integrals, np.maximum.accumulate(integrals))


@dataclass(frozen=True)
class LocalizationCell:
    """One cylinder class of the coset partition, with its bound scales.

    kind "pair": level-N cylinder anchored at x_k e_k + x_l e_l; the
    kernel-integral bound scales like M_k M_l / (n M_N) and the tail-sum
    bound like M_k M_l / M_N^2.  kind "single": anchored at x_k e_k;
    scales M_k / M_N and (M_k / M_N) l_n.
    """

    kind: str
    k: int
    x_k: int
    l: int | None
    x_l: int | None
    block_start: int
    block_stop: int


@dataclass(frozen=True)
class LocalizationSweep:
    """Ratios of exact kernel mass on cylinder classes to their bound
    expressions (constants stripped), for n = start..n_max."""

    base: VilenkinBase
    level_n: int
    n_start: int
    n_values: np.ndarray
    cells: tuple[LocalizationCell, ...]
    kernel_ratios: np.ndarray  # shape (cells, n)
    tail_ratios: np.ndarray  # shape (cells, n)

    def family_max_series(self, which: str, kind: str) -> np.ndarray:
        """Running max over n of the per-n max across the family's cells."""
        table = self.kernel_ratios if which == "kernel" else self.tail_ratios
        rows = [i for i, c in enumerate(self.cells) if c.kind == kind]
        return np.maximum.accumulate(table[rows].max(axis=0))

    def c_emp(self, which: str, kind: str) -> float:
        return float(self.family_max_series(which, kind)[-1])

    def stability(self, which: str, kind: str) -> float:
        """Relative running-max growth over the top octave of n."""
        series = self.family_max_series(which, kind)
        half = np.searchsorted(self.n_values, self.n_values[-1] // 2)
        return float(series[-1] / series[half] - 1.0)


def localization_sweep(
    base: VilenkinBase, cylinder_level: int, n_max: int, level: int | None = None
) -> LocalizationSweep:
    """The sweep of :func:`localization_sweeps` at one cylinder level."""
    return localization_sweeps(base, (cylinder_level,), n_max, level)[0]


def _localization_cells(partition: list[Cylinder], n_cells: int, level: int) -> list[LocalizationCell]:
    """The classes of ``coset_partition(base, n_cells)``, each as its level-N block at ``level``."""
    cells = []
    for cyl in partition:
        (k, x_k), *rest = [(j, x) for j, x in enumerate(cyl.anchor.coords) if x]
        l, x_l = rest[0] if rest else (None, None)
        block = Cylinder.at(cyl.anchor, n_cells).block(level)
        cells.append(LocalizationCell("pair" if rest else "single", k, x_k, l, x_l, block.start, block.stop))
    return cells


def localization_sweeps(
    base: VilenkinBase,
    cylinder_levels: Iterable[int],
    n_max: int,
    level: int | None = None,
) -> tuple[LocalizationSweep, ...]:
    """Exact kernel mass per coset-partition class against bound shapes,
    one sweep per cylinder level N, all from one stream of kernels.

    For each class cylinder and each n >= M_N computes the integral of the
    shifted |K_n(x - t)| over the zero level-N cylinder (constant in x
    across the class, so one representative block suffices) and the
    cumulative tail sum over j = M_N+1..n of the same integrals divided by
    j+1.  Ratios against the constant-free bound expressions estimate the
    constants.
    """
    levels = tuple(cylinder_levels)
    if not levels:
        raise ValueError("no cylinder level to sweep")
    partitions = [coset_partition(base, n_cells) for n_cells in levels]  # refuses a level outside [1, depth]
    level = base.depth if level is None else level
    base.require_count(n_max, level, "n_max")
    m_top = base.orders[max(levels)]
    if n_max < m_top:
        raise ValueError(f"n_max {n_max} below the first admissible index {m_top}")
    total = base.orders[level]
    cells = [_localization_cells(cyls, n_cells, level) for cyls, n_cells in zip(partitions, levels)]
    ranks = [[c.block_start * base.orders[n] // total for c in cs] for n, cs in zip(levels, cells)]
    masses = [np.empty((len(cs), n_max - base.orders[n] + 1)) for n, cs in zip(levels, cells)]

    for lo, block in CharacterSampler(base, level)._running_sums(n_max, _SWEEP_CELLS):
        hi = lo + len(block)  # the block holds n = lo .. hi - 1
        # in place, and the class rows summed as soon as they are gathered:
        # at one kernel per block, a second live temporary of this size
        # costs the allocator fresh pages every step
        kn_abs = np.abs(block)
        kn_abs /= np.arange(lo, hi, dtype=np.float64)[:, None]
        for n_cells, rows, mass in zip(levels, ranks, masses):
            m_n = base.orders[n_cells]
            first = max(lo, m_n)
            if first < hi:  # each class is one row of equal-width level-N blocks
                sums = kn_abs[first - lo :].reshape(hi - first, m_n, -1)[:, rows].sum(axis=2)
                mass[:, first - m_n : hi - m_n] = (sums / total).T

    harm = harmonic_sums(n_max)
    orders = np.array(base.orders)
    sweeps = []
    for n_cells, cs, mass in zip(levels, cells, masses):
        m_n = base.orders[n_cells]
        n_values = np.arange(m_n, n_max + 1)
        pair = np.array([[c.kind == "pair"] for c in cs])
        mk_ml = (orders[[c.k for c in cs]] * orders[[c.l or 0 for c in cs]])[:, None]  # M_0 = 1 for singles
        scale = mk_ml / m_n
        kernel_ratios = mass / np.where(pair, scale / n_values, scale)
        steps = mass / (n_values + 1)
        steps[:, 0] = 0.0  # the tail sum starts at j = M_N + 1
        tail_ratios = np.cumsum(steps, axis=1) / np.where(pair, mk_ml / m_n**2, scale * harm[n_values])
        sweeps.append(LocalizationSweep(base, n_cells, m_n, n_values, tuple(cs), kernel_ratios, tail_ratios))
    return tuple(sweeps)
