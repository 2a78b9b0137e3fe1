"""Vilenkin characters and the fast mixed-radix Fourier transform.

The character system is the tensor product of one cyclic DFT per digit
level, so the forward transform factors into per-level stages of size-m_k
DFT batches: total work proportional to M_N * sum(m_k) instead of M_N^2.
Stages run most-significant digit first, matching the rank convention, so
each stage is a contiguous batch.  Forward coefficients use the
conjugated character, matching the inner-product convention; the inverse
applies plain characters with no normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .functions import LevelFunction
from .group import GroupPoint, VilenkinBase, digit_rank_values, nat_expand

__all__ = [
    "Spectrum",
    "rademacher",
    "character",
    "character_samples",
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
        self.base.require_level(self.level)
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.base.orders[self.level],):
            raise ValueError(
                f"expected {self.base.orders[self.level]} coefficients at level {self.level}, "
                f"got shape {c.shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def rademacher(k: int, x: GroupPoint) -> complex:
    """Generalized Rademacher value exp(2 pi i x_k / m_k)."""
    base = x.base
    if not 0 <= k < base.depth:
        raise ValueError(f"level {k} outside [0, {base.depth})")
    return complex(np.exp(2j * np.pi * x.coords[k] / base.moduli[k]))


def character(n: int, x: GroupPoint) -> complex:
    """Character value: the product of digit-wise Rademacher powers."""
    base = x.base
    base.require_index(n)
    digits = nat_expand(base, n).digits
    phase = sum(d * xk / m for d, xk, m in zip(digits, x.coords, base.moduli))
    return complex(np.exp(2j * np.pi * phase))


def character_samples(base: VilenkinBase, n: int, level: int) -> np.ndarray:
    """Character n sampled on all level cylinders, in rank order."""
    sampler = CharacterSampler(base, level)
    if not 0 <= n < base.orders[level]:
        raise ValueError(f"character {n} not resolvable at level {level}")
    return sampler.character(n)


class CharacterSampler:
    """Cached per-digit phase vectors for repeated character sampling.

    Sweeps that walk n = 1..n_max request thousands of sampled characters;
    caching the (digit position, digit value) phase vectors makes each one
    a handful of vector multiplies.
    """

    def __init__(self, base: VilenkinBase, level: int):
        base.require_level(level)
        self.base = base
        self.level = level
        self._digit_values = digit_rank_values(base, level)
        self._phases: dict[tuple[int, int], np.ndarray] = {}

    def _phase(self, j: int, d: int) -> np.ndarray:
        key = (j, d)
        got = self._phases.get(key)
        if got is None:
            got = np.exp(2j * np.pi * d / self.base.moduli[j] * self._digit_values[j])
            got.setflags(write=False)
            self._phases[key] = got
        return got

    def character(self, n: int) -> np.ndarray:
        digits = nat_expand(self.base, n).digits
        out = np.ones(self.base.orders[self.level], dtype=np.complex128)
        for j in range(self.level):
            if digits[j]:
                out = out * self._phase(j, digits[j])
        return out

    def partial_sums(self, n_max: int, coeffs: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """Sampled partial sums S_n = sum_{j<n} c_j psi_j for n = 1..n_max.

        ``coeffs=None`` means all ones (S_n = D_n); zero coefficients are
        skipped.  Every sample-domain stream of the library walks this
        generator.  Each step yields a new array that later steps never write.
        """
        s = np.zeros(self.base.orders[self.level], dtype=np.complex128)
        for j in range(n_max):
            if coeffs is None:
                s = s + self.character(j)
            elif coeffs[j] != 0:
                s = s + coeffs[j] * self.character(j)
            yield s


@lru_cache(maxsize=None)
def _dft_matrix(m: int, sign: int) -> np.ndarray:
    a = np.arange(m)
    w = np.exp(sign * 2j * np.pi * np.outer(a, a) / m)
    w.setflags(write=False)
    return w


def _staged(values: np.ndarray, moduli: tuple[int, ...], sign: int) -> np.ndarray:
    """Apply one size-m DFT stage per digit axis.

    ``values`` is C-ordered over (d_0, ..., d_{N-1}) with d_0 slowest.
    Each stage contracts one axis with its DFT matrix; stages are
    independent, so the order is free and we go most-significant first.
    """
    arr = values.reshape(moduli)
    for j, m in enumerate(moduli):
        arr = np.moveaxis(np.tensordot(_dft_matrix(m, sign), arr, axes=([1], [j])), 0, j)
    return arr


def forward(f: LevelFunction) -> Spectrum:
    """Fast transform: all M_N coefficients of a level-N function."""
    n = f.level
    if n == 0:
        return Spectrum(f.base, 0, f.values.copy())
    moduli = f.base.moduli[:n]
    arr = _staged(f.values, moduli, -1)
    # input axes are point digits (x_0 slowest); coefficient indices are
    # little-endian in the digits, so reverse axes before flattening
    coeffs = arr.transpose(tuple(reversed(range(n)))).ravel() / f.base.orders[n]
    return Spectrum(f.base, n, coeffs)


def inverse(s: Spectrum) -> LevelFunction:
    """Synthesis: f(x) = sum_k f_hat(k) psi_k(x), exact at the level."""
    n = s.level
    if n == 0:
        return LevelFunction(s.base, 0, s.coeffs.copy())
    moduli = s.base.moduli[:n]
    arr = s.coeffs.reshape(tuple(reversed(moduli)))
    arr = arr.transpose(tuple(reversed(range(n))))  # axes now k_0 .. k_{N-1}
    out = _staged(arr.ravel(), moduli, +1)
    return LevelFunction(s.base, n, out.ravel())


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
