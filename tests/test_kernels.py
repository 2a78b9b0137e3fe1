from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import kernels
from vilenkin.functions import LevelFunction, constant, indicator
from vilenkin.group import Cylinder, coset_partition, make_base, point_of
from vilenkin.kernels import (
    KernelConvention,
    all_partial_sums,
    convolve,
    dirichlet,
    fejer_kernel,
    fejer_mean,
    gat_closed_form,
    gat_kernel,
    harmonic_sums,
    kernel_integral_sweep,
    localization_sweep,
    localization_sweeps,
    partial_sum,
    riesz_kernel,
    riesz_kernel_abel,
    riesz_mean,
    riesz_mean_abel,
)
from vilenkin.transform import CharacterSampler, Spectrum, forward, inverse

ZERO_BASED = KernelConvention.ZERO_BASED
SHIFTED = KernelConvention.SHIFTED


def _random(base, level, rng):
    n = base.orders[level]
    return LevelFunction(base, level, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_harmonic_sums_invariants():
    h = harmonic_sums(50)
    assert h[1] == 1.0
    assert np.all(np.diff(h[1:]) > 0)
    assert h[4] == pytest.approx(25 / 12)
    with pytest.raises(ValueError, match="read-only"):
        h[1] = 2.0


# ----------------------------------------------------------------------
# Dirichlet


@pytest.mark.parametrize("moduli,depth", [((2,), 8), ((2, 3), 5), ((3,), 4)])
def test_dirichlet_block_formula(moduli, depth):
    base = make_base(moduli, depth)
    for n in range(base.depth + 1):
        dn = dirichlet(base, base.orders[n], base.depth)
        block = indicator(Cylinder(base, n, 0), base.depth, base.orders[n])
        assert dn.max_abs_diff(block) < 1e-12


def test_dirichlet_small_values():
    base = make_base((2,), 4)
    assert dirichlet(base, 1, 4).max_abs_diff(constant(base, 4)) < 1e-14
    assert np.max(np.abs(dirichlet(base, 0, 4).values)) == 0.0
    # naive character-sum oracle at level 2
    base2 = make_base((2,), 2)
    d3 = dirichlet(base2, 3, 2)
    oracle = sum(CharacterSampler(base2, 2).character(k) for k in range(3))
    assert np.max(np.abs(d3.values - oracle)) < 1e-14
    assert np.allclose(d3.values.real, [3, 1, 1, -1])


def test_dirichlet_requires_resolvable_index():
    base = make_base((2,), 3)
    with pytest.raises(ValueError):
        dirichlet(base, 5, 2)


# ----------------------------------------------------------------------
# Fejer kernels


def test_fejer_zero_based_first_kernel_is_zero():
    base = make_base((2,), 3)
    assert np.max(np.abs(fejer_kernel(base, 1, 3, ZERO_BASED).values)) == 0.0


def test_fejer_shifted_second_kernel_values():
    base = make_base((2,), 5)
    k2 = fejer_kernel(base, 2, 5, SHIFTED)
    half = base.size // 2
    assert np.allclose(k2.values[:half].real, 1.5)
    assert np.allclose(k2.values[half:].real, 0.5)
    # cross-check by the direct sum (D_1 + D_2) / 2
    direct = (dirichlet(base, 1, 5) + dirichlet(base, 2, 5)) * 0.5
    assert k2.max_abs_diff(direct) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 9, 16])
def test_fejer_matches_direct_sum_oracle(n):
    base = make_base((2, 3), 4)
    shifted = sum(dirichlet(base, k, 4) for k in range(1, n + 1)) * (1.0 / n)
    zero_based = sum(dirichlet(base, k, 4) for k in range(0, n)) * (1.0 / n)
    assert fejer_kernel(base, n, 4, SHIFTED).max_abs_diff(shifted) < 1e-12
    assert fejer_kernel(base, n, 4, ZERO_BASED).max_abs_diff(zero_based) < 1e-12


def test_fejer_convention_gap_is_dirichlet_over_n():
    base = make_base((3, 2), 3)
    for n in (1, 2, 5, 11):
        gap = fejer_kernel(base, n, 3, SHIFTED) - fejer_kernel(base, n, 3, ZERO_BASED)
        assert gap.max_abs_diff(dirichlet(base, n, 3) * (1.0 / n)) < 1e-13


def test_fejer_kernel_integrals_by_convention():
    # direct-summation oracle: integral of D_k is 1 for k >= 1 and 0 for k = 0
    base = make_base((2, 3), 4)
    for n in (1, 2, 7, 20):
        assert fejer_kernel(base, n, 4, SHIFTED).integrate() == pytest.approx(1.0)
        assert fejer_kernel(base, n, 4, ZERO_BASED).integrate() == pytest.approx((n - 1) / n)


def test_fejer_rejects_zero_index():
    base = make_base((2,), 3)
    with pytest.raises(ValueError):
        fejer_kernel(base, 0, 3)


# ----------------------------------------------------------------------
# dyadic closed form


def test_gat_closed_form_examples():
    base = make_base((2,), 10)
    assert gat_closed_form(base, 1, point_of(base, 0, 10)) == pytest.approx(3 / 2)
    x = point_of(base, 0b1000000000, 10)  # leading digit set: x_0 = 1
    assert x.coords[0] == 1
    assert gat_closed_form(base, 2, x) == pytest.approx(1 / 2)
    from vilenkin.group import GroupPoint

    y = GroupPoint(base, (0, 1, 1, 0, 0, 0, 0, 0, 0, 0))
    assert gat_closed_form(base, 3, y) == 0.0


def test_gat_closed_form_matches_brute_force():
    base = make_base((2,), 6)
    for a in range(1, 7):
        brute = fejer_kernel(base, 2**a, 6, SHIFTED)
        assert brute.max_abs_diff(gat_kernel(base, a, 6)) < 1e-10


def test_gat_kernel_equals_the_closed_form_at_every_cell():
    base = make_base((2,), 8)
    for level in range(base.depth + 1):
        for a in range(level + 1):
            cells = [gat_closed_form(base, a, point_of(base, r, level)) for r in range(base.orders[level])]
            assert np.array_equal(gat_kernel(base, a, level).values, np.array(cells, dtype=np.complex128))


def test_gat_closed_form_rejects_non_dyadic():
    base = make_base((2, 3), 2)
    with pytest.raises(ValueError):
        gat_closed_form(base, 1, point_of(base, 0, 2))


# ----------------------------------------------------------------------
# Riesz kernels


def test_riesz_kernel_first_is_one():
    base = make_base((2, 3), 3)
    assert riesz_kernel(base, 1, 3).max_abs_diff(constant(base, 3)) < 1e-14


def test_riesz_kernel_matches_literal_sum():
    base = make_base((2, 3), 4)
    h = harmonic_sums(9)
    for n in (1, 2, 5, 9):
        literal = sum(dirichlet(base, k, 4) * (1.0 / k) for k in range(1, n + 1)) * (1.0 / h[n])
        assert riesz_kernel(base, n, 4).max_abs_diff(literal) < 1e-12


@pytest.mark.parametrize("moduli,depth,ns", [((2,), 9, (1, 2, 33, 512)), ((3,), 5, (4, 100, 243))])
def test_riesz_kernel_abel_route_agrees(moduli, depth, ns):
    base = make_base(moduli, depth)
    for n in ns:
        assert riesz_kernel(base, n, depth).max_abs_diff(riesz_kernel_abel(base, n, depth)) < 1e-9


def test_riesz_kernel_unit_integral():
    base = make_base((2,), 6)
    for n in (1, 3, 17, 64):
        assert riesz_kernel(base, n, 6).integrate() == pytest.approx(1.0)


# ----------------------------------------------------------------------
# partial sums


def test_partial_sum_of_character():
    base = make_base((2,), 4)
    psi3 = LevelFunction(base, 4, CharacterSampler(base, 4).character(3))
    for k in range(4):
        assert np.max(np.abs(partial_sum(psi3, k).values)) < 1e-13
    for k in (4, 9, 16):
        assert partial_sum(psi3, k).max_abs_diff(psi3) < 1e-13


def test_partial_sum_zero_index_is_zero():
    base = make_base((2, 3), 3)
    rng = np.random.default_rng(2)
    f = _random(base, 3, rng)
    assert np.max(np.abs(partial_sum(f, 0).values)) == 0.0


def test_partial_sum_at_orders_is_conditional_expectation():
    rng = np.random.default_rng(4)
    for moduli, depth in (((2,), 6), ((2, 3), 4)):
        base = make_base(moduli, depth)
        f = _random(base, depth, rng)
        for n in range(depth + 1):
            via_sum = partial_sum(f, base.orders[n])
            via_avg = f.conditional_expectation(n).at_level(depth)
            assert via_sum.max_abs_diff(via_avg) < 1e-10


def test_all_partial_sums_consistent():
    base = make_base((2, 3), 3)
    rng = np.random.default_rng(6)
    f = _random(base, 3, rng)
    family = all_partial_sums(f)
    assert len(family) == base.size + 1
    for k in (0, 1, 5, 12):
        assert family[k].max_abs_diff(partial_sum(f, k)) < 1e-12


# ----------------------------------------------------------------------
# means


def test_riesz_mean_of_single_character():
    base = make_base((2,), 4)
    psi3 = LevelFunction(base, 4, CharacterSampler(base, 4).character(3))
    got = riesz_mean(psi3, 4)
    assert got.max_abs_diff(psi3 * (3 / 25)) < 1e-13  # (1/l_4)(1/4), l_4 = 25/12


def test_fejer_mean_of_constant():
    base = make_base((2, 3), 3)
    c = constant(base, 3, 2.0 - 1.0j)
    for n in (1, 2, 7):
        zero_based = fejer_mean(c, n, ZERO_BASED)
        assert zero_based.max_abs_diff(c * ((n - 1) / n)) < 1e-13
        shifted = fejer_mean(c, n, SHIFTED)
        assert shifted.max_abs_diff(c) < 1e-13


def test_riesz_mean_of_constant():
    base = make_base((3,), 3)
    c = constant(base, 3, -4.2)
    for n in (1, 2, 9, 27):
        assert riesz_mean(c, n).max_abs_diff(c) < 1e-13


def test_means_match_literal_partial_sum_averages():
    base = make_base((2, 3), 4)
    rng = np.random.default_rng(12)
    f = _random(base, 4, rng)
    h = harmonic_sums(11)
    for n in (1, 3, 11):
        sums = [partial_sum(f, k) for k in range(n + 1)]
        lit_zero = sum(sums[:n], start=constant(base, 4, 0.0)) * (1.0 / n)
        lit_shift = sum(sums[1 : n + 1], start=constant(base, 4, 0.0)) * (1.0 / n)
        lit_riesz = sum(
            (sums[k] * (1.0 / k) for k in range(1, n + 1)), start=constant(base, 4, 0.0)
        ) * (1.0 / h[n])
        assert fejer_mean(f, n, ZERO_BASED).max_abs_diff(lit_zero) < 1e-11
        assert fejer_mean(f, n, SHIFTED).max_abs_diff(lit_shift) < 1e-11
        assert riesz_mean(f, n).max_abs_diff(lit_riesz) < 1e-11


def test_riesz_mean_abel_route_agrees():
    rng = np.random.default_rng(14)
    for moduli, depth, ns in (((2,), 8, (2, 3, 17, 256)), ((2, 3), 5, (2, 5, 61, 72))):
        base = make_base(moduli, depth)
        f = _random(base, depth, rng)
        for n in ns:
            assert riesz_mean(f, n).max_abs_diff(riesz_mean_abel(f, n)) < 1e-9


def test_riesz_mean_is_convolution_with_kernel():
    rng = np.random.default_rng(15)
    for moduli, depth in (((2,), 5), ((2, 3), 3)):
        base = make_base(moduli, depth)
        f = _random(base, depth, rng)
        for n in (1, 4, base.size // 2):
            lhs = riesz_mean(f, n)
            rhs = convolve(f, riesz_kernel(base, n, depth))
            assert lhs.max_abs_diff(rhs) < 1e-9


def test_mean_index_bounds():
    base = make_base((2,), 3)
    f = constant(base, 3)
    with pytest.raises(ValueError):
        riesz_mean(f, 0)
    with pytest.raises(ValueError):
        riesz_mean(f, 9)
    with pytest.raises(ValueError):
        fejer_mean(f, 9)


# ----------------------------------------------------------------------
# the digit-order window against the Paley-order route


def _paley_window(base, level, n, f=None, weights=None):
    """The Paley-order route: forward (ones for a kernel), a copy, the
    weights of j < n, +0.0 past n, and inverse."""
    coeffs = np.ones(base.orders[level], dtype=np.complex128) if f is None else forward(f).coeffs.copy()
    if weights is not None:
        coeffs[:n] *= weights(n)
    coeffs[n:] = 0.0
    return inverse(Spectrum._adopt(base, level, coeffs))


def _shifted_weights(n):
    return (n - np.arange(n, dtype=np.float64)) / n


def _zero_based_weights(n):
    return (n - 1 - np.arange(n, dtype=np.float64)) / n


def _riesz_paley_weights(n):
    harm = harmonic_sums(n)
    return 1.0 - harm[:n] / harm[n]


_WINDOW_CELLS = 2048  # largest base of the digit-order property test


@st.composite
def _window_cases(draw):
    """A random mixed-radix base (moduli 2-8) of at most _WINDOW_CELLS cells and a seed."""
    pattern = draw(st.lists(st.integers(2, 8), min_size=1, max_size=4))
    depth = draw(st.integers(1, 11))
    while depth > 1 and np.prod(make_base(pattern, depth).moduli, dtype=np.int64) > _WINDOW_CELLS:
        depth -= 1
    return make_base(pattern, depth), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_window_cases())
def test_window_in_digit_order_is_the_paley_route_byte_for_byte(case):
    """Every kernel and mean, at every level, for n in {0, 1, 2, M/3, M - 1, M}
    and one random n: the same bytes as the Paley-order route, signed zeros included."""
    base, seed = case
    rng = np.random.default_rng(seed)
    for level in range(base.depth + 1):
        total = base.orders[level]
        vals = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        vals[rng.random(total) < 0.2] = complex(-0.0, -0.0)
        f = LevelFunction(base, level, vals)
        for n in sorted({0, 1, 2, total // 3, total - 1, total, int(rng.integers(0, total + 1))} & set(range(total + 1))):
            pairs = [
                (dirichlet(base, n, level), _paley_window(base, level, n)),
                (partial_sum(f, n), _paley_window(base, level, n, f)),
            ]
            if n:
                pairs += [
                    (fejer_kernel(base, n, level), _paley_window(base, level, n, weights=_shifted_weights)),
                    (fejer_kernel(base, n, level, ZERO_BASED), _paley_window(base, level, n, weights=_zero_based_weights)),
                    (riesz_kernel(base, n, level), _paley_window(base, level, n, weights=_riesz_paley_weights)),
                    (fejer_mean(f, n), _paley_window(base, level, n, f, _shifted_weights)),
                    (fejer_mean(f, n, ZERO_BASED), _paley_window(base, level, n, f, _zero_based_weights)),
                    (riesz_mean(f, n), _paley_window(base, level, n, f, _riesz_paley_weights)),
                ]
            for i, (got, want) in enumerate(pairs):
                assert got.values.tobytes() == want.values.tobytes(), (base.moduli, level, n, i)


def _literal_abel(base, level, n, f=None):
    """The Abel sum as a literal loop: accumulate the stream's partial sums one step at a time."""
    coeffs = None if f is None else forward(f).coeffs
    acc = 0.0
    for j, cum in enumerate(accumulate(CharacterSampler(base, level).partial_sums(n, coeffs)), start=1):
        if j < n:
            acc = acc + cum / (j * (j + 1))
    return LevelFunction(base, level, (acc + cum / n) / harmonic_sums(n)[n])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_window_cases())
def test_abel_routes_are_the_literal_accumulate_loop(case):
    """riesz_kernel_abel and riesz_mean_abel, which draw their Fejer sums from the running-sum
    engine, are the literal accumulate loop over the stream byte for byte: at every level, for
    dense complex, real, sparse and zero spectra, at n = 1, a random n and M_level.  At 2048
    cells a block holds 8 rows, so n <= 8 is one character table and a larger n the stream,
    each summed past a sparse or zero spectrum's last nonzero coefficient."""
    base, seed = case
    rng = np.random.default_rng(seed)
    for level in range(base.depth + 1):
        total = base.orders[level]
        dense = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        sparse = np.zeros(total, dtype=np.complex128)
        head = rng.integers(0, total, size=3)
        sparse[head] = dense[head]
        spectra = (dense, dense.real, sparse, np.zeros(total))
        fs = [inverse(Spectrum(base, level, c)) for c in spectra]
        for n in sorted({1, int(rng.integers(1, total + 1)), total}):
            got = [riesz_kernel_abel(base, n, level)] + [riesz_mean_abel(f, n) for f in fs]
            want = [_literal_abel(base, level, n)] + [_literal_abel(base, level, n, f) for f in fs]
            for i, (g, w) in enumerate(zip(got, want)):
                assert g.values.tobytes() == w.values.tobytes(), (base.moduli, level, n, i)


@pytest.mark.parametrize("moduli, depth", [((2,), 10), ((4,), 5)])
def test_dirichlet_zeros_are_unsigned(moduli, depth):
    # the window sets the entries past n to +0.0 rather than multiplying them by 0
    base = make_base(moduli, depth)
    for n in range(base.size + 1):
        values = dirichlet(base, n, depth).values
        for part in (values.real, values.imag):
            assert not np.any(np.signbit(part[part == 0])), n


# ----------------------------------------------------------------------
# sweeps


def test_kernel_integral_sweep_matches_pointwise_kernels():
    base = make_base((2, 3), 4)
    sweep = kernel_integral_sweep(base, 4, 30)
    assert sweep.convention is SHIFTED
    for n in (1, 2, 7, 19, 30):
        direct = fejer_kernel(base, n, 4, SHIFTED).modulus().integrate().real
        assert sweep.integrals[n - 1] == pytest.approx(direct, abs=1e-12), n
    assert np.all(np.diff(sweep.running_max) >= 0)


def test_localization_sweep_masses_match_direct_integrals():
    base = make_base((2,), 8)
    sweep = localization_sweep(base, 2, 64, 8)
    # oracle: rebuild one ratio from a pointwise kernel and a block mean
    cell = sweep.cells[0]
    assert cell.kind == "pair"
    n = 48
    kn = fejer_kernel(base, n, 8, SHIFTED)
    mass = np.mean(np.abs(kn.values[cell.block_start : cell.block_stop])) / base.orders[2]
    expected = mass / (base.orders[cell.k] * base.orders[cell.l] / (n * base.orders[2]))
    col = n - sweep.n_start
    assert sweep.kernel_ratios[0, col] == pytest.approx(expected, rel=1e-12)


def test_localization_sweep_families_present_and_finite():
    base = make_base((2, 3), 4)
    sweep = localization_sweep(base, 3, 36, 4)
    kinds = {c.kind for c in sweep.cells}
    assert kinds == {"pair", "single"}
    assert np.isfinite(sweep.c_emp("kernel", "pair"))
    assert np.isfinite(sweep.c_emp("tail", "single"))
    single_cells = [c for c in sweep.cells if c.kind == "single"]
    # one single-family cell per nonzero digit at levels below the cylinder level
    assert len(single_cells) == (2 - 1) + (3 - 1) + (2 - 1)


_LOCALIZATION_CELLS = 512  # largest base whose sweeps are checked against fejer_kernel


@st.composite
def _localization_cases(draw):
    """A random mixed-radix base (moduli 2-7), a resolution level, n_max, the
    cylinder levels n_max admits and a seed for the spot n."""
    pattern = draw(st.lists(st.integers(2, 7), min_size=1, max_size=6))
    depth = 1
    while depth < len(pattern) and np.prod(pattern[: depth + 1]) <= _LOCALIZATION_CELLS:
        depth += 1
    base = make_base(tuple(pattern[:depth]), depth)
    level = draw(st.integers(1, depth))
    n_max = draw(st.integers(base.orders[1], base.orders[level]))
    admitted = [n for n in range(1, level + 1) if base.orders[n] <= n_max]
    levels = draw(st.lists(st.sampled_from(admitted), min_size=1, max_size=len(admitted), unique=True))
    return base, level, n_max, levels, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_localization_cases())
def test_localization_sweeps_match_oracles(case):
    """One stream for all levels against per-level sweeps, the coset
    partition, and block masses of the pointwise Fejer kernel."""
    base, level, n_max, levels, seed = case
    total = base.orders[level]
    rng = np.random.default_rng(seed)
    sweeps = localization_sweeps(base, levels, n_max, level)
    assert [s.level_n for s in sweeps] == levels
    for n_cells, sweep in zip(levels, sweeps):
        alone = localization_sweep(base, n_cells, n_max, level)
        assert alone.cells == sweep.cells
        for name in ("n_values", "kernel_ratios", "tail_ratios"):
            assert np.array_equal(getattr(alone, name), getattr(sweep, name)), name

        # each cell is the level-N cylinder at its coset class's anchor
        width = total // base.orders[n_cells]
        partition = coset_partition(base, n_cells)
        assert len(sweep.cells) == len(partition)
        for cell, cyl in zip(sweep.cells, partition):
            assert cell.block_start % width == 0 and cell.block_stop - cell.block_start == width
            first = point_of(base, cell.block_start, level)
            assert first.coords[:n_cells] == cyl.anchor.coords[:n_cells]
            anchor = {cell.k: cell.x_k} if cell.l is None else {cell.k: cell.x_k, cell.l: cell.x_l}
            assert first.coords[:n_cells] == tuple(anchor.get(j, 0) for j in range(n_cells))
            assert (cell.kind, cyl.level) == (("single", n_cells) if cell.l is None else ("pair", cell.l + 1))

        m_n, ns = base.orders[n_cells], sweep.n_values
        col = int(rng.integers(len(ns)))
        kn = np.abs(fejer_kernel(base, int(ns[col]), level, SHIFTED).values)
        want = np.empty(len(sweep.cells))
        for i, cell in enumerate(sweep.cells):
            mass = kn[cell.block_start : cell.block_stop].sum() / total
            shape = base.orders[cell.k] * (1 if cell.l is None else base.orders[cell.l] / ns[col])
            want[i] = mass / (shape / m_n)
        assert np.max(np.abs(sweep.kernel_ratios[:, col] - want)) <= 1e-12 * np.max(want), ns[col]

        # tail sums: sum over j = M_N+1..n of mass_j / (j+1), against the same masses
        for cell, kernel, tail in zip(sweep.cells, sweep.kernel_ratios, sweep.tail_ratios):
            mk = base.orders[cell.k]
            if cell.l is None:
                masses, tails = kernel * mk / m_n, tail * mk / m_n * harmonic_sums(n_max)[ns]
            else:
                ml = base.orders[cell.l]
                masses, tails = kernel * mk * ml / (ns * m_n), tail * mk * ml / m_n**2
            expected = np.concatenate([[0.0], np.cumsum(masses[1:] / (ns[1:] + 1))])
            assert np.allclose(tails, expected, rtol=1e-12, atol=1e-15 * max(1.0, np.max(expected)))


def _per_step_integrals(base, level, n_max):
    """The integral sweep one kernel at a time: the mean of |K_n| over the cells."""
    integrals = np.empty(n_max)
    for n, cum in enumerate(accumulate(CharacterSampler(base, level).partial_sums(n_max)), start=1):
        integrals[n - 1] = np.mean(np.abs(cum)) / n
    return integrals


def _per_step_localization(base, n_cells, n_max, level):
    """kernel_ratios and tail_ratios at one cylinder level, each class mass
    taken one kernel at a time from the blocks of |K_n| at that level."""
    total, m_n = base.orders[level], base.orders[n_cells]
    cells = kernels._localization_cells(coset_partition(base, n_cells), n_cells, level)
    rows = [c.block_start * m_n // total for c in cells]
    mass = np.empty((len(cells), n_max - m_n + 1))
    for n, cum in enumerate(accumulate(CharacterSampler(base, level).partial_sums(n_max)), start=1):
        kn_abs = np.abs(cum) / n
        if n >= m_n:
            mass[:, n - m_n] = kn_abs.reshape(m_n, -1)[rows].sum(axis=1) / total
    ns = np.arange(m_n, n_max + 1)
    orders = np.array(base.orders)
    pair = np.array([[c.kind == "pair"] for c in cells])
    mk_ml = (orders[[c.k for c in cells]] * orders[[c.l or 0 for c in cells]])[:, None]
    scale = mk_ml / m_n
    steps = mass / (ns + 1)
    steps[:, 0] = 0.0
    tail = np.cumsum(steps, axis=1) / np.where(pair, mk_ml / m_n**2, scale * harmonic_sums(n_max)[ns])
    return mass / np.where(pair, scale / ns, scale), tail


def _assert_sweeps_match_per_step(base, level, n_max, levels):
    sweep = kernel_integral_sweep(base, level, n_max)
    integrals = _per_step_integrals(base, level, n_max)
    assert np.array_equal(sweep.integrals, integrals)
    assert np.array_equal(sweep.running_max, np.maximum.accumulate(integrals))
    for n_cells, loc in zip(levels, localization_sweeps(base, levels, n_max, level) if levels else ()):
        kernel, tail = _per_step_localization(base, n_cells, n_max, level)
        assert np.array_equal(loc.kernel_ratios, kernel), n_cells
        assert np.array_equal(loc.tail_ratios, tail), n_cells


# the module's block, one-row blocks, and blocks that split the rows of small bases unevenly
_SWEEP_BLOCKS = (kernels._SWEEP_CELLS, 1, 7, 50)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_localization_cases())
def test_blocked_sweeps_match_the_per_step_loops(case):
    """Block by block, the sweeps are the per-step loops bit for bit, at every block size."""
    base, level, n_max, levels, _ = case
    for block_cells in _SWEEP_BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_SWEEP_CELLS", block_cells)
            _assert_sweeps_match_per_step(base, level, n_max, levels)


@pytest.mark.parametrize(
    "moduli, depth, n_max, levels",
    [
        ((2,), 15, 5, [1, 2]),  # 2^15 cells: one row per block
        ((2, 3), 8, 1, []),  # a single kernel
        ((2, 3), 8, 1296, [1, 3, 5]),  # 12 rows per block, 108 full blocks
        ((2, 3), 8, 1000, [2, 4]),  # a last block of 4 rows
        ((3,), 7, 2187, [2, 5]),  # 7 rows per block, a last block of 3
    ],
)
def test_sweeps_match_the_per_step_loops_at_the_module_block(moduli, depth, n_max, levels):
    _assert_sweeps_match_per_step(make_base(moduli, depth), depth, n_max, levels)
