"""Vilenkin characters and the fast mixed-radix Fourier transform.

The character system is the tensor product of one cyclic DFT per digit
level, so the forward transform factors into per-digit DFTs.  Consecutive
digits are grouped into runs of at most ``_RUN_CELLS`` = 16 cells (the
product of their moduli), and each run is applied as one Kronecker-product
DFT block in a single matrix product on a rotating layout: the run's axes
lead, the product moves them to the end, and after the last run the axes
are back in their original order.  Roots of unity that are quarter turns
are stored as the exact values 1, i, -1, -i, so dyadic and mod-4 digits
multiply exactly; the sampled characters of :class:`CharacterSampler`
take their roots from the same table.  Forward coefficients use the
conjugated character, matching the inner-product convention; the inverse
applies plain characters with no normalization.  The sampler's
``_running_sums`` is the one engine of running sums A_n = A_{n-1} + w_n S_n
over the partial sums, which the kernel sweeps, the Abel routes and the
maximal operators draw in blocks; only it chooses between the stream and a
character table.  It sums the rows it is asked for and knows no spectrum's
end: the maximal operators score the means past it in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .functions import LevelFunction, adopted_level_array, frozen_level_array
from .group import GroupPoint, VilenkinBase, digit_rank_values, nat_expand

__all__ = [
    "Spectrum",
    "rademacher",
    "character",
    "character_matrix",
    "CharacterSampler",
    "forward",
    "forward_naive",
    "inverse",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Fourier coefficient table f_hat(0..M_N - 1) at one level."""

    base: VilenkinBase
    level: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", frozen_level_array(self.base, self.level, self.coeffs, "coefficients"))

    @classmethod
    def _adopt(cls, base: VilenkinBase, level: int, coeffs: np.ndarray) -> "Spectrum":
        """Keep ``coeffs`` without a copy, as :meth:`LevelFunction._adopt` does:
        only for a table just allocated that nothing else refers to."""
        s = object.__new__(cls)
        object.__setattr__(s, "base", base)
        object.__setattr__(s, "level", level)
        object.__setattr__(s, "coeffs", adopted_level_array(base, level, coeffs, "coefficients"))
        return s


def rademacher(k: int, x: GroupPoint) -> complex:
    """Generalized Rademacher value exp(2 pi i x_k / m_k)."""
    x.base.require_position(k)
    return complex(np.exp(2j * np.pi * x.coords[k] / x.base.moduli[k]))


def character(n: int, x: GroupPoint) -> complex:
    """Character value: the product of digit-wise Rademacher powers."""
    base = x.base
    digits = nat_expand(base, n).digits  # refuses n outside [0, M_K)
    phase = sum(d * xk / m for d, xk, m in zip(digits, x.coords, base.moduli))
    return complex(np.exp(2j * np.pi * phase))


class CharacterSampler:
    """Characters sampled on the level cylinders, from exact roots.

    The digit-j factor of psi_n is the phase vector r_m[(n_j x_j) % m] over
    the cylinders x, where m = m_j and r_m is the root table of ``_roots``
    (quarter turns exact, as in the transform).  Phase vectors are built on
    first use and cached, one per (digit position, nonzero digit value):
    at most sum_j (m_j - 1) vectors of M_level samples.  When every modulus
    up to the level is 2 the roots are +-1, and the vectors, ``character``
    and the ``coeffs=None`` stream are float64 (``dtype``); otherwise they
    are complex128.  Sums over given coefficients take
    ``np.result_type(dtype, coeffs.dtype)``: float64 only for real
    coefficients on such digits, complex128 otherwise.
    """

    def __init__(self, base: VilenkinBase, level: int):
        self.base = base
        self.level = level
        self.dtype = np.dtype(np.float64 if set(base.moduli[:level]) <= {2} else np.complex128)
        self._digit_values = digit_rank_values(base, level)
        self._phases: dict[tuple[int, int], np.ndarray] = {}

    def _phase(self, j: int, d: int) -> np.ndarray:
        key = (j, d)
        got = self._phases.get(key)
        if got is None:
            m = self.base.moduli[j]
            roots = _roots(m, +1)
            got = (roots.real if self.dtype.kind == "f" else roots)[(d * self._digit_values[j]) % m]
            got.setflags(write=False)
            self._phases[key] = got
        return got

    def character(self, n: int) -> np.ndarray:
        """psi_n on the level cylinders, multiplied from the top digit down
        as :meth:`partial_sums` does, so the two agree bit for bit."""
        self.base.require_index(n, self.level)  # n >= M_level would alias to n mod M_level
        out = np.ones(self.base.orders[self.level], dtype=self.dtype)
        for j in reversed(range(self.level)):
            d = n // self.base.orders[j] % self.base.moduli[j]
            if d:
                out = self._phase(j, d) * out
        return out

    def characters(self, rows: int) -> np.ndarray:
        """psi_0..psi_{rows-1} on the level cylinders, one per row of a new
        (rows, M_level) table of ``dtype``.

        Row n is the suffix product P_0 of :meth:`partial_sums`, the same
        factors multiplied in the same order as there and in :meth:`character`,
        so the three agree bit for bit.  P_j depends on n only through
        n // M_j, so the distinct P_j are built from the distinct P_{j+1}, top
        digit down: row q of P_j is phase(j, q % m_j) times row q // m_j of
        P_{j+1}, one multiply per nonzero digit value and none for the digits
        that are zero for every n < rows.
        """
        self.base.require_count(rows, self.level, "rows", least=0)
        orders = self.base.orders
        table = np.ones((1, orders[self.level]), dtype=self.dtype)  # P_j for every digit j with M_j >= rows
        for j in reversed(range(self.level)):
            if orders[j] >= rows:
                continue
            m = self.base.moduli[j]
            out = np.empty((-(-rows // orders[j]), table.shape[1]), dtype=self.dtype)  # one row per n // M_j
            out[::m] = table[: len(out[::m])]
            for d in range(1, min(m, len(out))):
                np.multiply(self._phase(j, d), table[: len(out[d::m])], out=out[d::m])
            table = out
        return table[:rows]

    def _sums_dtype(self, coeffs: np.ndarray | None) -> np.dtype:
        """The dtype of sums over ``coeffs``: ``dtype`` for all ones (None)."""
        return self.dtype if coeffs is None else np.result_type(self.dtype, coeffs.dtype)

    def partial_sums(self, n_max: int, coeffs: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """Sampled partial sums S_n = sum_{j<n} c_j psi_j for n = 1..n_max.

        ``coeffs=None`` means all ones (S_n = D_n, of ``dtype``); otherwise
        the sums are of ``np.result_type(dtype, coeffs.dtype)``: float64 for
        real coefficients on dyadic digits, complex128 for complex ones or
        any other modulus.  n_max > M_level is refused before the first step:
        past the level S_n = S_{M_level}, and no caller sums that far.
        Every sample-domain stream of the library walks this generator,
        directly or through :meth:`_running_sums`.  Each step yields a new
        array that later steps never write.

        psi_n is the suffix product P_0, where P_j = phase(j, n_j) P_{j+1}
        over the digits of n.  Going from n to n + 1 changes only digits
        0..c (c the carry position), so a step recomputes P_c..P_0 alone:
        one vector multiply per nonzero digit among them (the digits below
        c are zero, so one in all).  A step over a zero coefficient only
        advances the digits; the next nonzero one refreshes every suffix the
        carries touched.  Besides the phase vectors, the suffix list holds one
        shared array of ones and at most one array per digit of n_max - 1 (so
        at most ``level``).
        """
        self.base.require_count(n_max, self.level, "n_max", least=0)
        total = self.base.orders[self.level]
        moduli = self.base.moduli
        width = sum(1 for m_j in self.base.orders[: self.level] if m_j < n_max)  # digits of n_max - 1
        digits = [0] * width
        suffix = [np.ones(total, dtype=self.dtype)] * (width + 1)  # P_0..P_width
        stale = 0  # P_0..P_{stale-1} lag behind the digits
        s = np.zeros(total, dtype=self._sums_dtype(coeffs))
        for n in range(n_max):
            if n:
                c = 0
                while digits[c] == moduli[c] - 1:
                    digits[c] = 0
                    c += 1
                digits[c] += 1
                stale = max(stale, c + 1)
            if coeffs is None or coeffs[n] != 0:
                for j in reversed(range(stale)):
                    d = digits[j]
                    suffix[j] = self._phase(j, d) * suffix[j + 1] if d else suffix[j + 1]
                stale = 0
                s = s + (suffix[0] if coeffs is None else coeffs[n] * suffix[0])
            yield s

    def _running_sums(
        self, n_max: int, cells: int, coeffs: np.ndarray | None = None, weights: np.ndarray | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """The running sums A_n = A_{n-1} + w_n S_n (A_0 = 0) for n = 1..n_max,
        as ``(lo, block)`` with row i of the block holding A_{lo+i}; S_n as in
        :meth:`partial_sums`, w_n = ``weights[n - 1]`` (ones if None).  The
        blocks have the dtype of the sums S_n; real weights keep it, and
        n_max = 0 yields no block.

        One block of about ``cells`` cells is reused: a caller reduces it before
        drawing the next.  When S_1..S_n_max fit one block they are one
        :meth:`characters` table and two cumsums (few cells, where a step costs
        more than its arithmetic); otherwise each S_n is drawn from the stream
        and added to the row before it, since a block cumsum over wide drawn
        rows is slower.  A block's first row adds to the last row of the block
        before, read where it lies, so no carry is copied.  Every row is the
        per-step loop's sum bit for bit: the table adds its terms to the
        block's zeros, so its sums start at +0 as the stream's do, and a term
        0 psi_n, which the stream skips, leaves them as they are.
        """
        total = self.base.orders[self.level]
        rows = max(1, min(n_max, cells // total))
        # the block's last row carries A_{lo-1}: A_0 = 0 at first
        block = np.zeros((rows, total), dtype=self._sums_dtype(coeffs))
        if 0 < n_max <= rows:  # S_1..S_n_max as one character table
            block += self.characters(n_max) if coeffs is None else coeffs[:n_max, None] * self.characters(n_max)
            np.cumsum(block, axis=0, out=block)
            if weights is not None:
                block *= weights[:n_max, None]
            np.cumsum(block, axis=0, out=block)
            yield 1, block
            return
        row = list(block)  # one view per row, not two slices a step
        stream = self.partial_sums(n_max, coeffs)
        for lo in range(1, n_max + 1, rows):
            k = min(rows, n_max + 1 - lo)
            for i, s in zip(range(k), stream):
                np.add(row[i - 1], s if weights is None else s * weights[lo - 1 + i], row[i])
            yield lo, block[:k]


_RUN_CELLS = 16  # largest product of moduli fused into one DFT block
_QUARTER_TURNS = (1, 1j, -1, -1j)


@lru_cache(maxsize=None)
def _roots(m: int, sign: int) -> np.ndarray:
    """exp(sign 2 pi i k / m) for k = 0..m-1, with the quarter turns stored
    as the exact values 1, i, -1, -i (exp lands near, not on, them)."""
    k = np.arange(m)
    w = np.exp(sign * 2j * np.pi * k / m)
    quarter = (4 * k) % m == 0
    w[quarter] = np.take(_QUARTER_TURNS, (sign * 4 * k[quarter] // m) % 4)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def _dft_matrix(m: int, sign: int) -> np.ndarray:
    a = np.arange(m)
    w = _roots(m, sign)[np.outer(a, a) % m]
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def _run_blocks(moduli: tuple[int, ...], sign: int) -> tuple[np.ndarray, ...]:
    """Kronecker-product DFT blocks of greedy digit runs of at most _RUN_CELLS cells."""
    blocks: list[np.ndarray] = []
    for m in moduli:
        w = _dft_matrix(m, sign)
        if blocks and blocks[-1].shape[0] * m <= _RUN_CELLS:
            w = np.kron(blocks.pop(), w)
            w.setflags(write=False)
        blocks.append(w)
    return tuple(blocks)


def _staged(values: np.ndarray, moduli: tuple[int, ...], sign: int) -> np.ndarray:
    """Apply the DFT of every digit axis, one matrix product per run.

    ``values`` is C-ordered over (d_0, ..., d_{N-1}) with d_0 slowest.
    Each run's axes lead the array; the product with the run's block
    contracts them and leaves them last, so the runs rotate the axes once
    round and the result is again C-ordered over (d_0, ..., d_{N-1}).
    """
    arr = values
    for w in _run_blocks(moduli, sign):
        arr = arr.reshape(w.shape[0], -1).T @ w.T
    return arr.reshape(moduli)


def forward(f: LevelFunction) -> Spectrum:
    """Fast transform: all M_N coefficients of a level-N function."""
    n = f.level
    if n == 0:
        return Spectrum._adopt(f.base, 0, f.values.copy())
    moduli = f.base.moduli[:n]
    arr = _staged(f.values, moduli, -1)
    # input axes are point digits (x_0 slowest); coefficient indices are
    # little-endian in the digits, so the scaling writes the reversed axes
    # into a C-ordered table: the reorder and the 1/M_N in one pass
    coeffs = np.empty(f.base.orders[n], dtype=np.complex128)
    np.divide(arr.transpose(tuple(reversed(range(n)))), f.base.orders[n], out=coeffs.reshape(moduli[::-1]))
    return Spectrum._adopt(f.base, n, coeffs)


def inverse(s: Spectrum) -> LevelFunction:
    """Synthesis: f(x) = sum_k f_hat(k) psi_k(x), exact at the level."""
    n = s.level
    if n == 0:
        return LevelFunction._adopt(s.base, 0, s.coeffs.copy())
    moduli = s.base.moduli[:n]
    arr = s.coeffs.reshape(tuple(reversed(moduli)))
    arr = arr.transpose(tuple(reversed(range(n))))  # axes now k_0 .. k_{N-1}
    out = _staged(arr.ravel(), moduli, +1)  # a new array: n >= 1 runs at least one product
    return LevelFunction._adopt(s.base, n, out.ravel())


def character_matrix(base: VilenkinBase, level: int) -> np.ndarray:
    """Dense table psi[k, r]: character k at the rank-r point.

    Built digit by digit straight from the definition; serves as the
    independent oracle for the staged transform and for orthonormality
    checks.  Quadratic memory, keep the level small.
    """
    base.require_level(level)
    total = base.orders[level]
    digit_values = digit_rank_values(base, level)
    psi = np.ones((total, total), dtype=np.complex128)
    ks = np.arange(total)
    for j in range(level):
        k_digit = (ks // base.orders[j]) % base.moduli[j]
        phase = np.outer(k_digit, digit_values[j]) / base.moduli[j]
        psi *= np.exp(2j * np.pi * phase)
    return psi


def forward_naive(f: LevelFunction) -> Spectrum:
    """Direct O(M^2) coefficient summation; the transform oracle."""
    psi = character_matrix(f.base, f.level)
    coeffs = psi.conj() @ f.values / f.base.orders[f.level]
    return Spectrum(f.base, f.level, coeffs)
