import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import transform
from vilenkin.functions import LevelFunction, constant, indicator
from vilenkin.group import Cylinder, GroupPoint, make_base, point_of, zero_point
from vilenkin.kernels import dirichlet, partial_sum
from vilenkin.transform import (
    CharacterSampler,
    Spectrum,
    character,
    character_matrix,
    forward,
    forward_naive,
    inverse,
    rademacher,
)


def _random(base, level, rng):
    n = base.orders[level]
    return LevelFunction(base, level, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_rademacher_values():
    b = make_base((2, 2))
    assert rademacher(0, GroupPoint(b, (1, 0))) == pytest.approx(-1.0)
    b3 = make_base((3, 2))
    assert rademacher(0, GroupPoint(b3, (1, 0))) == pytest.approx(np.exp(2j * np.pi / 3))
    assert rademacher(1, zero_point(b3)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rademacher(2, zero_point(b))


def test_character_examples():
    b = make_base((2, 2, 2))
    for r in range(8):
        x = point_of(b, r, 3)
        assert character(0, x) == pytest.approx(1.0)
        assert character(1, x) == pytest.approx((-1.0) ** x.coords[0])
    for n in range(8):
        assert character(n, zero_point(b)) == pytest.approx(1.0)


@pytest.mark.parametrize("moduli,depth", [((2,), 4), ((2, 3), 3), ((3,), 3)])
def test_character_group_law_exhaustive(moduli, depth):
    base = make_base(moduli, depth)
    points = [point_of(base, r, base.depth) for r in range(base.size)]
    for n in range(base.size):
        vals = {p.coords: character(n, p) for p in points}
        for x in points[: min(6, len(points))]:
            for y in points:
                lhs = character(n, x + y)
                assert lhs == pytest.approx(vals[x.coords] * vals[y.coords])


@pytest.mark.parametrize("moduli,depth", [((2,), 8), ((2, 3, 2), 3), ((3, 3), 2)])
def test_orthonormality_exhaustive(moduli, depth):
    base = make_base(moduli, depth)
    psi = character_matrix(base, base.depth)
    gram = psi @ psi.conj().T / base.size
    assert np.max(np.abs(gram - np.eye(base.size))) < 1e-12


def test_character_samples_agree_with_pointwise():
    base = make_base((2, 3, 4), 3)
    for n in (0, 1, 5, 17, 23):
        sampled = CharacterSampler(base, 3).character(n)
        direct = [character(n, point_of(base, r, 3)) for r in range(base.size)]
        assert np.max(np.abs(sampled - direct)) < 1e-14


def test_forward_of_character_is_indicator():
    base = make_base((2, 3), 4)
    for j in (0, 1, 7, 35):
        f = LevelFunction(base, 4, CharacterSampler(base, 4).character(j))
        coeffs = forward(f).coeffs
        expected = np.zeros(base.size)
        expected[j] = 1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-12


def test_forward_constant():
    base = make_base((3, 2), 2)
    coeffs = forward(constant(base, 2, 2.5)).coeffs
    assert coeffs[0] == pytest.approx(2.5)
    assert np.max(np.abs(coeffs[1:])) < 1e-15


def test_forward_of_scaled_block_is_all_ones():
    base = make_base((2, 3, 2), 3)
    f = indicator(Cylinder(base, 3, 0), 3, base.size)
    coeffs = forward(f).coeffs
    assert np.max(np.abs(coeffs - 1.0)) < 1e-12
    # same statement through the naive oracle
    naive = forward_naive(f).coeffs
    assert np.max(np.abs(naive - 1.0)) < 1e-12


def test_all_ones_spectrum_synthesizes_dirichlet_block():
    base = make_base((2, 3), 4)
    s = Spectrum(base, 4, np.ones(base.size))
    f = inverse(s)
    block = indicator(Cylinder(base, 4, 0), 4, base.size)
    assert f.max_abs_diff(block) < 1e-12
    assert f.max_abs_diff(dirichlet(base, base.size, 4)) < 1e-12


def test_indicator_spectrum_synthesizes_character():
    base = make_base((3, 2), 2)
    for n in range(base.size):
        coeffs = np.zeros(base.size)
        coeffs[n] = 1.0
        f = inverse(Spectrum(base, 2, coeffs))
        assert np.max(np.abs(f.values - CharacterSampler(base, 2).character(n))) < 1e-14


@pytest.mark.parametrize(
    "moduli,depth", [((2,), 10), ((2, 3), 8), ((3,), 6), ((6, 5, 4), 3)]
)
def test_fast_matches_naive(moduli, depth):
    base = make_base(moduli, depth)
    rng = np.random.default_rng(42)
    f = _random(base, base.depth, rng)
    fast = forward(f).coeffs
    naive = forward_naive(f).coeffs
    scale = np.max(np.abs(naive))
    assert np.max(np.abs(fast - naive)) / scale < 1e-10


@pytest.mark.parametrize(
    "moduli, depth",
    [((2,), 18), ((2, 3), 12), ((3,), 10), ((5, 4, 3), 6), ((7,), 7), ((2, 2, 3), 9), ((2, 3, 5), 7), ((16,), 4), ((17,), 3)],
)
def test_forward_scales_while_it_reorders(moduli, depth):
    """The one-pass Paley reorder and 1/M scaling against the flatten-then-divide route, byte for byte."""
    base = make_base(moduli, depth)
    rng = np.random.default_rng(depth)
    for level in range(1, depth + 1):
        f = _random(base, level, rng)
        arr = transform._staged(f.values, base.moduli[:level], -1)
        two_step = arr.transpose(tuple(reversed(range(level)))).ravel()
        two_step /= base.orders[level]
        assert forward(f).coeffs.tobytes() == two_step.tobytes(), level


def test_naive_matches_pure_python_double_loop():
    base = make_base((2, 3, 2), 3)
    rng = np.random.default_rng(8)
    f = _random(base, 3, rng)
    slow = np.array(
        [
            sum(
                f.values[r] * np.conj(character(k, point_of(base, r, 3)))
                for r in range(base.size)
            )
            / base.size
            for k in range(base.size)
        ]
    )
    assert np.max(np.abs(forward(f).coeffs - slow)) < 1e-12


def test_round_trip():
    rng = np.random.default_rng(0)
    for moduli, depth in (((2,), 9), ((2, 3), 6), ((4, 3, 5), 3)):
        base = make_base(moduli, depth)
        f = _random(base, base.depth, rng)
        assert inverse(forward(f)).max_abs_diff(f) < 1e-9
        g = _random(base, base.depth - 1, rng)
        assert inverse(forward(g)).max_abs_diff(g) < 1e-9


def test_parseval():
    rng = np.random.default_rng(17)
    base = make_base((2, 3), 6)
    for _ in range(20):
        f = _random(base, 6, rng)
        lhs = np.sum(np.abs(forward(f).coeffs) ** 2)
        rhs = np.mean(np.abs(f.values) ** 2)
        assert abs(lhs - rhs) / rhs < 1e-10


def test_level_zero_edge_case():
    base = make_base((2,), 2)
    f = constant(base, 0, 3.0 - 1j)
    s = forward(f)
    assert s.coeffs[0] == pytest.approx(3.0 - 1j)
    assert inverse(s).max_abs_diff(f) == 0.0


def test_spectrum_shape_validation():
    base = make_base((2,), 2)
    with pytest.raises(ValueError):
        Spectrum(base, 2, np.ones(3))
    with pytest.raises(ValueError):
        CharacterSampler(base, 2).character(4)


def test_sampler_refuses_an_index_its_level_cannot_resolve():
    # on (2,) depth 4 at level 2, character 5 used to alias to character 1
    base = make_base((2,), 4)
    sampler = CharacterSampler(base, 2)
    with pytest.raises(ValueError, match=r"index 5 outside the representable range \[0, 4\)"):
        sampler.character(5)
    with pytest.raises(ValueError, match="index 10 not resolvable at level 2"):
        next(sampler.partial_sums(10))  # refused before the first sum
    with pytest.raises(ValueError, match="index 5 not resolvable"):
        next(sampler.partial_sums(5, np.ones(5)))
    # past the level S_n = S_4 belongs to the running-sum engine, even over zero coefficients
    with pytest.raises(ValueError, match="index 10 not resolvable at level 2"):
        next(sampler.partial_sums(10, np.array([1.0, 2.0, 3.0, 4.0, 0, 0, 0, 0, 0, 0])))


_SAMPLER_CELLS = 300  # cap on M_K so the per-n partial-sum oracle stays cheap


@st.composite
def _sampler_inputs(draw):
    """A random mixed-radix base, a level on it, and a spectrum with zeros."""
    pattern = draw(st.lists(st.integers(2, 7), min_size=1, max_size=6))
    depth = 1
    while depth < len(pattern) and np.prod(pattern[: depth + 1]) <= _SAMPLER_CELLS:
        depth += 1
    base = make_base(tuple(pattern[:depth]), depth)
    level = draw(st.integers(0, depth))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = base.orders[level]
    coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    coeffs[rng.random(size) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    coeffs *= 10.0 ** draw(st.integers(-3, 3))
    return base, level, coeffs, draw(st.integers(1, size))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sampler_inputs())
def test_partial_sums_stream_matches_oracles(case):
    """The sample-domain stream against the spectral-window partial sums."""
    base, level, coeffs, n_max = case
    f = inverse(Spectrum(base, level, coeffs))
    sampler = CharacterSampler(base, level)
    tol = 1e-11 * float(np.max(np.abs(f.values)))
    sums, kept = [], []
    for s in sampler.partial_sums(n_max, coeffs):
        sums.append(s)
        kept.append(s.copy())
    assert len(sums) == n_max
    for n, s in enumerate(sums, start=1):
        assert np.max(np.abs(s - partial_sum(f, n).values)) <= tol, n
    kernels = list(sampler.partial_sums(n_max))
    for n, d in enumerate(kernels, start=1):
        assert np.max(np.abs(d - dirichlet(base, n, level).values)) <= 1e-11 * n, n
    # yielded arrays are never written by later steps
    assert all(np.array_equal(a, b) for a, b in zip(sums, kept))


_STREAM_CELLS = 256  # largest base whose streams are checked against character_matrix


@st.composite
def _stream_cases(draw):
    """A random mixed-radix base (moduli 2-7; all-2, all-4 and (2, 4) among
    them) of at most _STREAM_CELLS cells, and a seed."""
    pattern = draw(
        st.one_of(st.sampled_from([(2,), (4,), (2, 4)]), st.lists(st.integers(2, 7), min_size=1, max_size=4))
    )
    depth = 1
    while make_base(pattern, depth + 1).size <= _STREAM_CELLS:
        depth += 1
    return make_base(pattern, depth), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_stream_cases())
def test_carry_incremental_stream_matches_the_character_matrix(case):
    """Every S_n of the stream against sum_{j<n} c_j psi_j from the
    independent oracle, at every level, for all-one, sparse and dense
    coefficients; D_n exact where every root is a quarter turn."""
    base, seed = case
    rng = np.random.default_rng(seed)
    for level in range(base.depth + 1):
        total = base.orders[level]
        psi = character_matrix(base, level)
        dense = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        sparse = np.where(rng.random(total) < 0.7, 0.0, dense)
        moduli = set(base.moduli[:level])
        for coeffs in (None, sparse, dense):
            c = np.ones(total) if coeffs is None else coeffs
            want = np.cumsum(c[:, None] * psi, axis=0)  # row n - 1 is psi[:n].T @ c[:n]
            sums = list(CharacterSampler(base, level).partial_sums(total, coeffs))
            assert len(sums) == total
            for n, s in enumerate(sums, start=1):
                assert np.max(np.abs(s - want[n - 1])) <= 1e-13 * np.max(np.abs(s)), (level, n)
            if coeffs is None:
                assert all(s.dtype == (np.float64 if moduli <= {2} else np.complex128) for s in sums), level
                if moduli <= {2, 4}:
                    assert all(np.array_equal(s, np.round(s)) for s in sums), level
        # a one-hot spectrum streams psi_k itself, built as character(k) builds it
        sampler = CharacterSampler(base, level)
        k = int(rng.integers(total))
        *_, last = sampler.partial_sums(total, np.eye(total)[k])
        assert np.array_equal(last, sampler.character(k)), (level, k)


_TABLE_CELLS = 512  # largest base whose character tables are checked row by row


@st.composite
def _table_cases(draw):
    """A random mixed-radix base ((3,) and (2, 3) among them) of at most
    _TABLE_CELLS cells, a level on it, a row count and a seed."""
    pattern = draw(
        st.one_of(st.sampled_from([(2,), (3,), (2, 3)]), st.lists(st.integers(2, 7), min_size=1, max_size=4))
    )
    depth = 1
    while make_base(pattern, depth + 1).size <= _TABLE_CELLS:
        depth += 1
    base = make_base(pattern, depth)
    level = draw(st.integers(0, depth))
    return base, level, draw(st.integers(0, base.orders[level])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_table_cases())
def test_character_table_matches_the_stream_bit_for_bit(case):
    """Row n of characters(rows) is character(n), and the row cumsum of
    c[:, None] * characters(h) is the stream's S_1..S_h, both bit for bit."""
    base, level, rows, seed = case
    sampler = CharacterSampler(base, level)
    table = sampler.characters(rows)
    assert table.shape == (rows, base.orders[level]) and table.dtype == sampler.dtype
    for n in range(rows):
        assert np.array_equal(table[n], sampler.character(n)), n
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    c[rng.random(rows) < 0.5] = 0.0  # the stream skips zero coefficients, the table adds 0 * psi_n
    got = np.cumsum(c[:, None] * table, axis=0)
    want = list(sampler.partial_sums(rows, c))
    assert len(want) == rows
    for n, s in enumerate(want):
        assert np.array_equal(got[n], s), n


def test_character_table_refuses_a_row_its_level_cannot_resolve():
    sampler = CharacterSampler(make_base((2, 3), 4), 2)
    assert sampler.characters(0).shape == (0, 6)
    with pytest.raises(ValueError, match="index 7 not resolvable at level 2"):
        sampler.characters(7)


@pytest.mark.parametrize(
    "moduli, level, coeffs_dtype, dtype",
    [
        ((2,), 4, np.float64, np.float64),
        ((2,), 4, np.complex128, np.complex128),
        ((2, 3), 1, np.float64, np.float64),  # the modulus 3 is not below the level
        ((2, 3), 2, np.float64, np.complex128),
        ((3, 2), 1, np.float64, np.complex128),
    ],
)
def test_the_sums_are_float64_only_for_real_coefficients_on_dyadic_digits(moduli, level, coeffs_dtype, dtype):
    sampler = CharacterSampler(make_base(moduli, 4), level)
    total = sampler.base.orders[level]
    coeffs = np.arange(1, total + 1).astype(coeffs_dtype)
    assert {s.dtype for s in sampler.partial_sums(total, coeffs)} == {np.dtype(dtype)}
    for cells in (1, 65536):  # drawn from the stream, and one character table
        blocks = sampler._running_sums(total, cells, coeffs, 1.0 / np.arange(1, total + 1))
        assert {block.dtype for _, block in blocks} == {np.dtype(dtype)}


@pytest.mark.parametrize("moduli, depth", [((2, 3), 6), ((2,), 10)])
def test_stream_rebuilds_no_character(monkeypatch, moduli, depth):
    """The stream updates the suffix products, never a whole character."""

    def refuse(*args):
        raise AssertionError("character rebuilt from its digits")

    monkeypatch.setattr(transform, "nat_expand", refuse)
    monkeypatch.setattr(CharacterSampler, "character", refuse)
    base = make_base(moduli, depth)
    coeffs = np.random.default_rng(3).standard_normal(base.size)
    for c in (None, coeffs):
        assert sum(1 for _ in CharacterSampler(base, depth).partial_sums(base.size, c)) == base.size


_ENGINE_CELLS = 2048  # largest base whose running sums are checked against the literal loop
_DYADIC_DEPTH = 9  # deepest dyadic base drawn beside them, where real spectra take the float64 route


@st.composite
def _engine_cases(draw):
    """A random mixed-radix base (moduli 2-8) of at most _ENGINE_CELLS cells or a
    dyadic base of depth at most _DYADIC_DEPTH, a level on it and a seed."""
    pattern = draw(st.one_of(st.just((2,)), st.lists(st.integers(2, 8), min_size=1, max_size=4)))
    depth = 1
    cap = 2**_DYADIC_DEPTH if pattern == (2,) else _ENGINE_CELLS
    while make_base(pattern, depth + 1).size <= cap:
        depth += 1
    return make_base(pattern, depth), draw(st.integers(0, depth)), draw(st.integers(0, 2**32 - 1))


def _literal_running_sums(sampler, n_max, coeffs, weights):
    """A_n = A_{n-1} + w_n S_n for n = 1..n_max, one step at a time, as rows."""
    dtype = sampler.dtype if coeffs is None else np.result_type(sampler.dtype, coeffs.dtype)
    acc = np.zeros(sampler.base.orders[sampler.level], dtype=dtype)
    rows = []
    for n, s in enumerate(sampler.partial_sums(n_max, coeffs), start=1):
        acc = acc + (s if weights is None else s * weights[n - 1])
        rows.append(acc)
    return np.array(rows)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_engine_cases())
@np.errstate(invalid="ignore", over="ignore")  # the inf and NaN spectra meet inf * 0 and inf - inf
def test_running_sums_are_the_literal_loop(case):
    """Every block of ``_running_sums`` equals the literal loop over the stream,
    for no, dense, sparse and all-zero coefficients, complex and real, with and
    without 1/n weights, at n_max 1, random and the last index.  Blocks of 1 and
    7 cells give one-row blocks drawn from the stream, 65536 cells one character
    table, and n_max = 1 a one-row table; both routes sum the rows of a sparse
    or zero spectrum past its last nonzero coefficient.  A finite real
    spectrum's sums are, up to the sign of a zero, the real parts of the same
    spectrum's complex128 sums, and their moduli are its moduli byte for byte:
    float64 on dyadic digits, and the complex128 sums themselves otherwise."""
    base, level, seed = case
    rng = np.random.default_rng(seed)
    sampler = CharacterSampler(base, level)
    total = base.orders[level]
    dense = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    sparse = np.zeros(total, dtype=np.complex128)
    head = rng.integers(0, -(-total // 4), size=3)  # a short head, then S_n = S_h
    sparse[head] = dense[head]
    finite = (dense.real, sparse.real, 1e-300 * dense.real, np.zeros(total))
    inf, nan = dense.real.copy(), dense.real.copy()
    inf[total // 2], nan[total // 3] = np.inf, np.nan
    spectra = (None, dense, sparse, np.zeros(total, dtype=np.complex128), *finite, inf, nan)
    for coeffs in spectra:
        for weights in (None, 1.0 / np.arange(1, total + 1)):
            want = _literal_running_sums(sampler, total, coeffs, weights)
            if any(coeffs is c for c in finite):
                cplx = _literal_running_sums(sampler, total, coeffs.astype(np.complex128), weights)
                if sampler.dtype == np.float64:
                    assert want.dtype == np.float64 and np.array_equal(want, cplx.real)
                    assert np.abs(want).tobytes() == np.abs(cplx).tobytes()
                else:
                    assert want.tobytes() == cplx.tobytes()
            for n_max in sorted({1, int(rng.integers(1, total + 1)), total}):
                for cells in (1, 7, base.size, 16384, 65536):
                    blocks = [(lo, block.copy()) for lo, block in sampler._running_sums(n_max, cells, coeffs, weights)]
                    los = np.cumsum([1] + [len(block) for _, block in blocks])
                    assert [lo for lo, _ in blocks] == list(los[:-1]) and los[-1] == n_max + 1
                    got = np.concatenate([block for _, block in blocks])
                    assert got.dtype == want.dtype and got.tobytes() == want[:n_max].tobytes(), (n_max, cells)


@pytest.mark.parametrize("coeffs", [None, np.ones(16)], ids=["kernels", "spectrum"])
def test_no_running_sums_yield_no_block(coeffs):
    sampler = CharacterSampler(make_base((2,), 4), 4)
    for cells in (1, 65536):
        assert list(sampler._running_sums(0, cells, coeffs)) == []


@pytest.mark.parametrize("n_max, cells, route", [(16, 16 * 64, "table"), (1, 1, "table"), (16, 15 * 64, "stream")])
def test_the_engine_takes_a_table_iff_the_sums_fit_one_block(monkeypatch, n_max, cells, route):
    """A sparse spectrum summed past its last nonzero coefficient: one character
    table when n_max rows fit one block, otherwise the stream, and the same rows."""
    sampler = CharacterSampler(make_base((2,), 6), 6)
    coeffs = np.zeros(64)
    coeffs[[0, 3]] = 1.5, -2.0
    weights = 1.0 / np.arange(1, n_max + 1)
    want = _literal_running_sums(sampler, n_max, coeffs, weights)

    def refuse(*args):
        raise AssertionError("the engine took the wrong route")

    monkeypatch.setattr(CharacterSampler, "partial_sums" if route == "table" else "characters", refuse)
    got = np.concatenate([block.copy() for _, block in sampler._running_sums(n_max, cells, coeffs, weights)])
    assert got.tobytes() == want.tobytes()


def test_a_table_starts_its_sums_at_plus_zero():
    """The table adds its terms to +0, as the stream does: a leading -0 coefficient, or
    the -0 imaginary part of -1 - 0j, leaves a sum of +0, not -0."""
    sampler = CharacterSampler(make_base((2,), 4), 4)
    for coeffs in (np.array([-0.0, 0.0, 2.0] + [0.0] * 13), np.full(16, complex(-1.0, -0.0))):
        want = _literal_running_sums(sampler, 16, coeffs, None)
        for cells in (1, 65536):
            got = np.concatenate([block.copy() for _, block in sampler._running_sums(16, cells, coeffs)])
            assert got.tobytes() == want.tobytes(), cells


_FUSED_CELLS = 1024  # largest base checked against the quadratic oracles


@st.composite
def _fused_cases(draw):
    """A random mixed-radix base (moduli 2-7, depth 1-8) and a seed."""
    pattern = draw(st.lists(st.integers(2, 7), min_size=1, max_size=8))
    depth = 1
    while depth < len(pattern) and np.prod(pattern[: depth + 1]) <= _FUSED_CELLS:
        depth += 1
    return make_base(tuple(pattern[:depth]), depth), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_fused_cases())
def test_fused_transform_matches_oracles(case):
    """Fused runs against the quadratic oracles at every level, so the last
    run of digits ends at every position."""
    base, seed = case
    rng = np.random.default_rng(seed)
    for level in range(base.depth + 1):
        f = _random(base, level, rng)
        spec = forward(f)
        fast = spec.coeffs
        assert np.max(np.abs(fast - forward_naive(f).coeffs)) <= 1e-12 * np.max(np.abs(fast)), level
        back = inverse(spec).values
        assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values)), level
        coeffs = rng.standard_normal(base.orders[level]) + 1j * rng.standard_normal(base.orders[level])
        synth = character_matrix(base, level).T @ coeffs
        got = inverse(Spectrum(base, level, coeffs)).values
        assert np.max(np.abs(got - synth)) <= 1e-12 * np.max(np.abs(synth)), level


@pytest.mark.parametrize("moduli, depth", [((2,), 10), ((2, 4), 6)])
def test_dirichlet_kernels_are_exact_gaussian_integers(moduli, depth):
    # quarter-turn roots are exact, so sums of characters have no rounding
    base = make_base(moduli, depth)
    for level in (depth // 2, depth):
        for n in (1, 3, 7, 100, 1023, base.orders[level] - 1, base.orders[level]):
            if n > base.orders[level]:
                continue
            v = dirichlet(base, n, level).values
            assert np.array_equal(v, np.round(v)), (level, n)
            if moduli == (2,):
                assert np.all(v.imag == 0), (level, n)
