import functools
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin.functions import LevelFunction, constant
from vilenkin.group import make_base
from vilenkin.hardy import random_atom
from vilenkin import maximal
from vilenkin.kernels import fejer_mean, kernel_integral_sweep, localization_sweeps, riesz_mean
from vilenkin.transform import CharacterSampler, Spectrum, forward, inverse
from vilenkin.maximal import (
    OperatorSpec,
    WeightSpec,
    hp_to_lp_ratio,
    riesz_star,
    sigma_star,
    weighted_riesz_star,
)


def _random(base, level, rng):
    n = base.orders[level]
    return LevelFunction(base, level, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_riesz_star_of_constant():
    base = make_base((2, 3), 4)
    rep = riesz_star(constant(base, 4, -1.5 + 2j), 36)
    assert np.allclose(rep.result.values.real, 2.5)


def test_star_reports_match_pointwise_means():
    base = make_base((2,), 5)
    rng = np.random.default_rng(10)
    f = _random(base, 5, rng)
    n_max = 20
    riesz_env = np.max(
        [np.abs(riesz_mean(f, n).values) for n in range(1, n_max + 1)], axis=0
    )
    assert np.max(np.abs(riesz_star(f, n_max).result.values.real - riesz_env)) < 1e-11
    sigma_env = np.max([np.abs(fejer_mean(f, n).values) for n in range(1, n_max + 1)], axis=0)
    assert np.max(np.abs(sigma_star(f, n_max).result.values.real - sigma_env)) < 1e-11


def test_star_monotone_in_truncation():
    base = make_base((2, 3), 4)
    rng = np.random.default_rng(1)
    f = _random(base, 4, rng)
    prev = None
    for n_max in (1, 5, 12, 36):
        cur = riesz_star(f, n_max).result.values.real
        if prev is not None:
            assert np.min(cur - prev) >= -1e-13
        prev = cur


def test_star_positive_homogeneity():
    base = make_base((3,), 4)
    rng = np.random.default_rng(2)
    f = _random(base, 4, rng)
    for c in (2.0, -0.3, 1.7 - 2.2j):
        lhs = riesz_star(c * f, 50).result.values.real
        rhs = abs(c) * riesz_star(f, 50).result.values.real
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        lhs = sigma_star(c * f, 50).result.values.real
        rhs = abs(c) * sigma_star(f, 50).result.values.real
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_star_subadditive():
    base = make_base((2, 3), 4)
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = _random(base, 4, rng)
        g = _random(base, 4, rng)
        lhs = riesz_star(f + g, 36).result.values.real
        rhs = riesz_star(f, 36).result.values.real + riesz_star(g, 36).result.values.real
        assert np.max(lhs - rhs) < 1e-11


def test_abel_domination_of_riesz_by_fejer():
    # the rearrangement bound: the bracket (1/l_n)(sum 1/(j+1) + 1) is exactly 1
    base = make_base((2, 3), 5)
    rng = np.random.default_rng(6)
    f = _random(base, 5, rng)
    r = riesz_star(f, 72).result.values.real
    s = sigma_star(f, 72).result.values.real
    assert np.max(r - s) < 1e-11


def test_star_requires_resolvable_truncation():
    base = make_base((2,), 3)
    f = constant(base, 3)
    with pytest.raises(ValueError):
        riesz_star(f, 9)
    with pytest.raises(ValueError):
        sigma_star(f, 0)


def test_argmax_tracks_attaining_index():
    base = make_base((2,), 4)
    rng = np.random.default_rng(3)
    f = _random(base, 4, rng)
    rep = riesz_star(f, 16)
    assert rep.argmax.min() >= 1 and rep.argmax.max() <= 16
    env = np.stack([np.abs(riesz_mean(f, n).values) for n in range(1, 17)])
    for r in range(base.size):
        attained = env[rep.argmax[r] - 1, r]
        assert attained == pytest.approx(rep.result.values[r].real, rel=1e-12)


# ----------------------------------------------------------------------
# weights


def test_unit_weight_reduces_to_riesz_star():
    base = make_base((2,), 5)
    rng = np.random.default_rng(8)
    f = _random(base, 5, rng)
    coeffs = np.zeros(base.size)
    coeffs[:2] = 1.0, 5e-16  # numerators that tie from n = 31 on, where psi_1 = 1
    for g in (f, inverse(Spectrum(base, 5, coeffs))):
        a = weighted_riesz_star(g, WeightSpec("unit"), 32)
        b = riesz_star(g, 32)
        assert a.result.max_abs_diff(b.result) == 0.0
        assert np.array_equal(a.argmax, b.argmax)  # phi = 1 takes riesz_star's tail rule, ties included


def test_log_weight_single_index():
    base = make_base((2,), 4)
    rng = np.random.default_rng(9)
    f = _random(base, 4, rng)
    got = weighted_riesz_star(f, WeightSpec("log"), 1).result.values.real
    expect = np.abs(riesz_mean(f, 1).values) / np.log(2.0)
    assert np.max(np.abs(got - expect)) < 1e-13


def test_power_log_divisor_shape():
    w = WeightSpec("power_log", p=0.25)
    d = w.divisors(10)
    n = np.arange(1, 11)
    assert np.allclose(d, (n + 1) ** 2.0 / np.log(n + 1))


def test_power_log_sq_exponent_uses_integer_part():
    # floor(1/2 + p) is 1 for p = 1/2 (exponent 2) and 0 for p < 1/2
    w_half = WeightSpec("power_log_sq", p=0.5)
    assert np.allclose(w_half.divisors(5), np.log(np.arange(2, 7)) ** 2)
    w_small = WeightSpec("power_log_sq", p=0.3)
    n = np.arange(1, 6)
    assert np.allclose(w_small.divisors(5), (n + 1) ** (1 / 0.3 - 2))


def test_generic_weights_validated_but_concrete_forms_exempt():
    base = make_base((2,), 4)
    f = constant(base, 4)
    # log(2) < 1, yet the log form is an operator definition, not a hypothesis
    weighted_riesz_star(f, WeightSpec("log"), 2)
    # the squared-log shape dips below 1 at n = 1, so as a generic weight it fails
    with pytest.raises(ValueError, match="below 1"):
        weighted_riesz_star(f, WeightSpec("power_log_sq", p=0.5), 4)
    with pytest.raises(ValueError, match="nondecreasing"):
        weighted_riesz_star(f, WeightSpec.custom([2.0, 1.5, 1.2, 1.0]), 4)


@pytest.mark.parametrize("bad, index", [(float("nan"), 1), (float("inf"), 2)], ids=["nan", "inf"])
def test_custom_table_refuses_a_non_finite_entry(bad, index):
    # NaN passes the phi >= 1 and monotonicity checks (both compare False) and a
    # NaN block peak never beats the initial best, so every cell used to read -1
    table = [1.0, 2.0, 3.0, 4.0]
    table[index] = bad
    with pytest.raises(ValueError, match=f"custom_table entry {index} is not finite, got {bad}"):
        weighted_riesz_star(constant(make_base((2,), 3), 3, 1.0), WeightSpec.custom(table), 4)


@pytest.mark.parametrize("kind", ["power_log", "power_log_sq"])
@pytest.mark.parametrize("p", [0.0, -0.5, float("nan")])
def test_power_weight_rejects_non_positive_p(kind, p):
    with pytest.raises(ValueError, match="positive exponent"):
        WeightSpec(kind, p=p)


# ----------------------------------------------------------------------
# ratios


def test_ratio_scale_invariance():
    base = make_base((2,), 6)
    rng = np.random.default_rng(11)
    f = _random(base, 6, rng)
    op = OperatorSpec("riesz", 64)
    a = hp_to_lp_ratio(f, op, 0.5)
    b = hp_to_lp_ratio(7.0 * f, op, 0.5)
    assert a.strong == pytest.approx(b.strong)
    assert a.weak == pytest.approx(b.weak)


def test_ratio_on_half_atom_is_finite():
    base = make_base((2,), 8)
    rng = np.random.default_rng(14)
    atom = random_atom(base, 0.5, rng, level_range=(2, 2))
    f = atom.values.at_level(8)
    out = hp_to_lp_ratio(f, OperatorSpec("weighted_riesz", 256, WeightSpec("log")), 0.5)
    assert np.isfinite(out.weak) and out.weak > 0


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("moduli, level, deeper", [((2,), 5, 8), ((2, 3), 3, 6), ((3, 5), 2, 4)])
def test_ratio_does_not_depend_on_the_level_it_is_given_at(moduli, level, deeper, p):
    # every norm is taken at the effective level, so refining the input moves no bit
    base = make_base(moduli, deeper)
    rng = np.random.default_rng(level * 10 + deeper)
    atom = random_atom(base, p, rng, level_range=(0, level - 2))
    op = OperatorSpec("sigma", base.size)
    for f in (_random(base, level, rng), atom.values):
        a = hp_to_lp_ratio(f, op, p)
        b = hp_to_lp_ratio(f.at_level(deeper), op, p)
        for field in ("hardy_norm", "strong", "weak"):
            assert getattr(b, field) == getattr(a, field), (f.level, field)


def test_ratio_rejects_zero_input():
    base = make_base((2,), 3)
    with pytest.raises(ValueError, match="zero"):
        hp_to_lp_ratio(constant(base, 3, 0.0), OperatorSpec("riesz", 8), 0.5)


def test_operator_spec_dispatch():
    base = make_base((2,), 4)
    f = constant(base, 4, 1.0)
    assert OperatorSpec("sigma", 4).apply(f).operator == "sigma_star"
    assert OperatorSpec("riesz", 4).apply(f).operator == "riesz_star"
    rep = OperatorSpec("weighted_riesz", 4, WeightSpec("log")).apply(f)
    assert rep.operator == "riesz_star/log"
    with pytest.raises(ValueError):
        OperatorSpec("weighted_riesz", 4).apply(f)
    with pytest.raises(ValueError):
        OperatorSpec("nope", 4).apply(f)


def test_operator_spec_refuses_an_ignored_weight():
    f = constant(make_base((2,), 4), 4, 1.0)
    assert OperatorSpec("sigma", 4, WeightSpec("unit")).apply(f).operator == "sigma_star"
    for op in ("sigma", "riesz"):
        with pytest.raises(ValueError, match=f"operator {op} takes no weight, got 'log'"):
            OperatorSpec(op, 4, WeightSpec("log"))


_STREAM_CELLS = 200  # cap on M_K so the per-n oracle stays cheap


@st.composite
def _stream_inputs(draw):
    """A function on a random mixed-radix or dyadic base, resolved at full depth.

    The spectrum lives at a random level (so the effective level can sit
    below the depth), is either dense or a few scattered coefficients, and
    is real or complex: a real spectrum on a dyadic base is a real function,
    whose running sums the operators take in float64.
    """
    mixed, dyadic = st.lists(st.integers(2, 7), min_size=1, max_size=6), st.lists(st.just(2), min_size=1, max_size=7)
    pattern = draw(st.one_of(mixed, dyadic))
    depth = 1
    while depth < len(pattern) and np.prod(pattern[: depth + 1]) <= _STREAM_CELLS:
        depth += 1
    base = make_base(tuple(pattern[:depth]), depth)
    level = draw(st.integers(0, depth))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = base.orders[level]
    coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if draw(st.booleans()):
        coeffs = coeffs.real.copy()
    if draw(st.booleans()):  # sparse
        keep = np.zeros(size, dtype=bool)
        keep[rng.integers(0, size, size=draw(st.integers(0, 4)))] = True
        coeffs[~keep] = 0.0
    coeffs *= 10.0 ** draw(st.integers(-3, 3))
    f = inverse(Spectrum(base, level, coeffs)).at_level(depth)
    return f, draw(st.integers(1, base.size))


# _BLOCK_CELLS sizes the blocks of n; the bases here fit in one block at the
# module's value, so each stream also runs with one-row and seven-cell blocks
_BLOCK_SIZES = (maximal._BLOCK_CELLS, 1, 7)
# _TAIL_CELLS sizes the runs of the tail scored in full; at the module's value
# a tail here is one run, so each also runs halved down to single rows and cells
_TAIL_SIZES = (maximal._TAIL_CELLS, 1, 7)


def _head_edge_blocks(f, n_max):
    """Block sizes at the edge of the head's path: a first block of exactly h
    rows, where S_1..S_h come from one character table, and of h - 1 rows,
    where the head spills into the next block and streams step by step."""
    g = f.compress()
    nonzero = np.flatnonzero(forward(g).coeffs)
    head = min(n_max, int(nonzero[-1]) + 1 if nonzero.size else 0)
    cells = g.values.size
    return tuple(rows * cells for rows in (head, head - 1) if rows >= 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_stream_inputs())
def test_stream_matches_per_n_means(case):
    """The blocked stream against the spectral-weight means, at every block size."""
    f, n_rand = case
    top = f.base.size
    nonzero = np.flatnonzero(forward(f).coeffs)
    just_past = min(top, int(nonzero[-1]) + 2) if nonzero.size else 1
    ns = np.arange(1, top + 1)
    logs = np.log(ns + 1.0)[:, None]
    terms = {
        "sigma": np.array([np.abs(fejer_mean(f, n).values) for n in ns]),
        "riesz": np.array([np.abs(riesz_mean(f, n).values) for n in ns]),
    }
    terms["riesz_log"] = terms["riesz"] / logs
    tol = 1e-11 * float(np.max(np.abs(f.values)))
    cells = np.arange(top)
    for block_cells in _BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maximal, "_BLOCK_CELLS", block_cells)
            for n_max in sorted({1, n_rand, just_past, top}):
                reports = {
                    "sigma": sigma_star(f, n_max),
                    "riesz": riesz_star(f, n_max),
                    "riesz_log": weighted_riesz_star(f, WeightSpec("log"), n_max),
                }
                for key, rep in reports.items():
                    where = (key, n_max, block_cells)
                    got = rep.result.values.real
                    assert np.max(np.abs(got - terms[key][:n_max].max(axis=0))) <= tol, where
                    assert rep.argmax.min() >= 1 and rep.argmax.max() <= n_max
                    attained = terms[key][rep.argmax - 1, cells]
                    assert np.max(np.abs(attained - got)) <= tol, where


def _literal_sup(f, n_max, mode, divisors):
    """The operators as one plain loop over n = 1..n_max, with no blocks: the
    sup, its first argmax, and every mean (rows n, columns the cells of f)."""
    g = f.compress()
    total = g.values.size
    sums = list(CharacterSampler(g.base, g.level).partial_sums(min(n_max, total), forward(g).coeffs))
    sums += sums[-1:] * (n_max - total)  # S_n f = f past the effective level
    acc = np.zeros(total, dtype=np.complex128)
    harm = 0.0
    best = np.full(total, -1.0)
    arg = np.zeros(total, dtype=np.int64)
    table = []
    for n, s in enumerate(sums, start=1):
        if mode == "sigma":
            acc = acc + s
            vals = np.abs(acc) / n
        else:
            acc = acc + s / n
            harm += 1.0 / n
            vals = np.abs(acc) / harm
        if divisors is not None:
            vals = vals / divisors[n - 1]
        table.append(vals)
        better = vals > best
        best[better] = vals[better]
        arg[better] = n
    reps = f.values.size // g.values.size
    return np.repeat(best, reps), np.repeat(arg, reps), np.repeat(np.array(table), reps, axis=1)


def _closed_form_sup(f, n_max, mode, divisors):
    """The operators' contract as one plain loop: the stream's means up to the
    last nonzero coefficient h, then past it mean_n = |c v_n + f| / phi_n with
    c = acc_h - u_h f, u_h = h (Fejer) or l_h (Riesz) and v_n = 1 / n or 1 / l_n,
    at every n for a weight and at n = h + 1 and n_max without one."""
    g = f.compress()
    coeffs = forward(g).coeffs
    nonzero = np.flatnonzero(coeffs)
    h = min(n_max, int(nonzero[-1]) + 1 if nonzero.size else 0)
    acc = np.zeros(g.values.size, dtype=np.complex128)
    harm = u = 0.0
    best = np.full(g.values.size, -1.0)
    arg = np.zeros(g.values.size, dtype=np.int64)
    sums = CharacterSampler(g.base, g.level).partial_sums(h, coeffs)
    for n in range(1, n_max + 1):
        harm += 1.0 / n
        b = float(n) if mode == "sigma" else harm
        if n <= h:
            s = next(sums)
            acc = acc + (s if mode == "sigma" else s / n)
            vals = np.abs(acc) / b
            u = b
        else:
            if n == h + 1:
                c = acc - u * g.values
            if divisors is None and n not in (h + 1, n_max):
                continue
            vals = np.abs(c * (1.0 / b) + g.values)
        if divisors is not None:
            vals = vals / divisors[n - 1]
        better = vals > best
        best[better] = vals[better]
        arg[better] = n
    reps = f.values.size // g.values.size
    return np.repeat(best, reps), np.repeat(arg, reps)


def _with_cell(f, value):
    values = f.values.copy()
    values[len(values) // 3] = value
    return LevelFunction(f.base, f.level, values)


# inputs beside f and its zero at the edges of the float64 route's byte argument: subnormal-adjacent and
# overflowing sums
_EDGES = {
    "tiny": lambda f: f * 1e-300,
    "huge": lambda f: f * (1e307 / max(1.0, float(np.max(np.abs(f.values))))),
}

# inputs that no mean of is a number everywhere: an inf or NaN cell, and a constant inf
_NON_FINITE = {
    "inf": (lambda f: _with_cell(f, np.inf), "(inf+0j)"),
    "nan": (lambda f: _with_cell(f, np.nan), "(nan+0j)"),
    "constant-inf": (lambda f: constant(f.base, f.base.depth, np.inf), "(inf+0j)"),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_stream_inputs(), st.sampled_from(sorted(_EDGES)))
@np.errstate(invalid="ignore", over="ignore")  # the edges overflow, and meet inf * 0 and inf - inf
def test_stream_is_bit_identical_to_a_literal_loop(case, edge):
    """Result and argmax equal, bit for bit, a literal loop of the stream's head
    and the closed-form tail, on head-only, tail-only and mixed runs, with the
    head ending inside a block and on a block edge, and with a head that fills
    the first block or spills one row past it, for complex and real functions
    and an edge input beside each."""
    f, n_rand = case
    top = f.base.size
    nonzero = np.flatnonzero(forward(f).coeffs)
    last = int(nonzero[-1]) + 1 if nonzero.size else 0
    zero = f * 0.0  # no head at all: every step is in the tail
    log, power_log = WeightSpec("log"), WeightSpec("power_log", p=0.3)
    for g in (f, zero, _EDGES[edge](f)):
        for n_max in sorted({1, n_rand, min(top, last + 1), top}):
            shape = "tail-only" if g is zero else "head-only" if n_max <= last else "mixed"
            runs = [
                (functools.partial(sigma_star, g, n_max), ("sigma", None)),
                (functools.partial(riesz_star, g, n_max), ("riesz", None)),
                (functools.partial(weighted_riesz_star, g, log, n_max), ("riesz", log.divisors(n_max))),
                (functools.partial(weighted_riesz_star, g, power_log, n_max), ("riesz", power_log.divisors(n_max))),
            ]
            for run, (mode, divisors) in runs:
                best, arg = _closed_form_sup(g, n_max, mode, divisors)
                sizes = [*zip(_BLOCK_SIZES, _TAIL_SIZES), *((c, maximal._TAIL_CELLS) for c in _head_edge_blocks(g, n_max))]
                for block_cells, tail_cells in sizes:
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(maximal, "_BLOCK_CELLS", block_cells)
                        mp.setattr(maximal, "_TAIL_CELLS", tail_cells)
                        rep = run()
                    where = (edge, shape, rep.operator, n_max, block_cells, tail_cells)
                    assert rep.result.values.real.tobytes() == best.tobytes(), where
                    assert rep.argmax.tobytes() == arg.tobytes(), where


def _tail_weights(top):
    """The weights of the tail property: none (both operators), the log form, the
    multiplied-log form at p = 0.3 and at p = 0.45 (where phi falls up to
    n = 89), the squared-log shape, and a custom table with plateaus."""
    steps = WeightSpec.custom(1.0 + np.floor(np.sqrt(np.arange(top))))
    weights = (WeightSpec("log"), WeightSpec("power_log", p=0.3), WeightSpec("power_log", p=0.45))
    weights += (WeightSpec("power_log_sq", p=0.3), steps)
    return [("sigma", None), ("riesz", None)] + [("riesz", w) for w in weights]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_stream_inputs())
def test_the_closed_form_tail_matches_the_stream(case):
    """The pruned tail of a weighted operator is the closed form at every row, bit
    for bit; every operator is within eps * 8 n_max * the data's magnitude of the
    stream's per-step sums (a bound that a 1e-9 change of that magnitude breaks),
    and its argmax is the stream's or ties the stream's sup within that bound."""
    f, n_rand = case
    top = f.base.size
    eps = np.finfo(np.float64).eps
    for n_max in sorted({1, n_rand, top}):
        for mode, weight in _tail_weights(top):
            divisors = None if weight is None else weight.phi(n_max)
            best, arg, table = _literal_sup(f, n_max, mode, divisors)
            plain = table if divisors is None else _literal_sup(f, n_max, mode, None)[2]
            # the largest unweighted mean or cell value, in the result's units (phi may dip below 1)
            scale = max(float(np.max(plain)), float(np.max(np.abs(f.values))))
            scale /= 1.0 if divisors is None else min(1.0, float(np.min(divisors)))
            tol = eps * 8 * n_max * scale
            closed = _closed_form_sup(f, n_max, mode, divisors)
            for block_cells, tail_cells in zip(_BLOCK_SIZES, _TAIL_SIZES):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(maximal, "_BLOCK_CELLS", block_cells)
                    mp.setattr(maximal, "_TAIL_CELLS", tail_cells)
                    if weight is None:
                        rep = (sigma_star if mode == "sigma" else riesz_star)(f, n_max)
                    else:
                        rep = weighted_riesz_star(f, weight, n_max)
                got = rep.result.values.real
                where = (rep.operator, n_max, block_cells, tail_cells)
                if weight is not None:
                    assert got.tobytes() == closed[0].tobytes() and rep.argmax.tobytes() == closed[1].tobytes(), where
                assert np.max(np.abs(got - best)) <= tol, where
                assert not scale or np.max(np.abs(got - (best + 1e-9 * scale))) > tol, where  # the zero function has no scale
                moved = np.flatnonzero(rep.argmax != arg)
                assert np.all(table[rep.argmax[moved] - 1, moved] >= best[moved] - 2 * tol), where


@pytest.mark.parametrize(
    "weight",
    [WeightSpec.custom(np.ones(1024)), WeightSpec("power_log", p=0.45)],
    ids=["flat", "power-log-falls-to-n-89"],
)
def test_the_tail_finds_a_peak_inside_a_run(weight):
    """f = 1 + d psi_1 has c = -d psi_1: its Riesz numerators |c v_n + f| rise to a
    float plateau at 1 + d where psi_1 = 1.  Under a flat weight the sup ties along
    that plateau and its first n is inside the tail; under power_log(0.45) the sup
    sits at phi's minimum near n = 89, which neither end of the tail bounds."""
    base = make_base((2,), 10)
    coeffs = np.zeros(base.size)
    coeffs[:2] = 1.0, 5e-16
    f = inverse(Spectrum(base, base.depth, coeffs))
    best, arg = _closed_form_sup(f, base.size, "riesz", weight.divisors(base.size))
    assert 3 < arg.max() < base.size
    for tail_cells in _TAIL_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maximal, "_TAIL_CELLS", tail_cells)
            rep = weighted_riesz_star(f, weight, base.size)
        assert rep.result.values.real.tobytes() == best.tobytes(), tail_cells
        assert rep.argmax.tobytes() == arg.tobytes(), tail_cells


@pytest.mark.parametrize("edge", sorted(_NON_FINITE))
@pytest.mark.parametrize("moduli, depth", [((2,), 5), ((2, 3), 3)])
def test_the_operators_refuse_a_non_finite_input(monkeypatch, edge, moduli, depth):
    """No sup is taken where a mean is not a number: the first non-finite cell
    is named before any sampler is built."""
    make, spelled = _NON_FINITE[edge]
    g = make(_random(make_base(moduli, depth), depth, np.random.default_rng(depth)))
    cell = int(np.flatnonzero(~np.isfinite(g.values))[0])

    def no_stream(*args):
        raise AssertionError("a stream ran on a non-finite input")

    monkeypatch.setattr(maximal, "CharacterSampler", no_stream)
    message = f"maximal operators need a finite input; cell {cell} holds {spelled}"
    for run in (sigma_star, riesz_star, lambda f, n: weighted_riesz_star(f, WeightSpec("log"), n)):
        with pytest.raises(ValueError, match=re.escape(message)):
            run(g, g.base.size)


def _real_spectrum_function(moduli, depth, imag_at=None):
    """A function with a real random spectrum on ``moduli``, and with one
    nonzero imaginary part at index ``imag_at`` if given."""
    base = make_base(moduli, depth)
    coeffs = np.random.default_rng(depth).standard_normal(base.size).astype(np.complex128)
    if imag_at is not None:
        coeffs[imag_at] += 1e-3j
    return inverse(Spectrum(base, depth, coeffs))


@pytest.mark.parametrize(
    "f, dtype",
    [
        (_real_spectrum_function((2,), 6), np.float64),
        (_real_spectrum_function((2,), 6, imag_at=37), np.complex128),
        (LevelFunction(make_base((2, 3), 4), 4, np.random.default_rng(2).standard_normal(36)), np.complex128),
        (constant(make_base((2,), 6), 6, np.inf), None),  # refused: no mean of it is a number
    ],
    ids=["real-dyadic", "one-imaginary-part", "real-on-2-3", "constant-inf"],
)
def test_the_operators_sum_in_float64_only_for_a_finite_real_spectrum_on_dyadic_digits(monkeypatch, f, dtype):
    if dtype is None:
        for run in (sigma_star, lambda g, n: weighted_riesz_star(g, WeightSpec("log"), n)):
            with pytest.raises(ValueError, match=r"cell 0 holds \(inf\+0j\)"):
                run(f, f.base.size)
        return
    seen = set()
    engine = CharacterSampler._running_sums

    def spy(self, *args):
        for lo, block in engine(self, *args):
            seen.add(block.dtype)
            yield lo, block

    monkeypatch.setattr(CharacterSampler, "_running_sums", spy)
    sigma_star(f, f.base.size)
    weighted_riesz_star(f, WeightSpec("log"), f.base.size)
    assert seen == {np.dtype(dtype)}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_stream_inputs(), st.data())
def test_a_coarse_function_reads_as_its_refinement(case, data):
    """n_max is a count in the base's range, not the function's: the operators on
    f at any level it is measurable at equal, once refined, the call at full depth."""
    f, n_rand = case
    depth = f.base.depth
    g = f.compress()
    coarse = g.at_level(data.draw(st.integers(g.level, depth)))
    reps = f.base.size // coarse.values.size
    log = WeightSpec("log")
    runs = (sigma_star, riesz_star, lambda h, n_max: weighted_riesz_star(h, log, n_max))
    for n_max in sorted({1, n_rand, f.base.size}):
        for run in runs:
            fine, rep = run(f, n_max), run(coarse, n_max)
            where = (rep.operator, coarse.level, n_max)
            assert rep.result.level == coarse.level, where
            assert np.array_equal(rep.result.at_level(depth).values, fine.result.values), where
            assert np.array_equal(np.repeat(rep.argmax, reps), fine.argmax), where


# the running-sum engine's byte pins: dyadic, odd, mixed, mod-4 and mod-16, and a prime modulus
_PIN_GEOMETRIES = (((2,), 10), ((3,), 6), ((2, 3), 6), ((5, 4, 3), 3), ((16, 3), 3), ((7,), 3))
# the kernel sweeps, pinned before the closed-form tail of the maximal operators, which they do not read
_SWEEPS_SHA256 = "1c0da6fc5176a89db78db795b8414eaccfdf58297ce5ba1e121121372f8c32cf"
# the maximal operators, re-pinned with the closed-form tail
_MAXIMAL_SHA256 = "73adccca18bcf3c1ae8db8ae9bf709d42f04ba4aa4375790f5957b6080158f6c"


def _pin_inputs(base, rng):
    """A dense function, a sparse spectrum in the lowest quarter, and a p = 1/2 atom at its own level."""
    dense = _random(base, base.depth, rng)
    coeffs = np.zeros(base.size, dtype=np.complex128)
    coeffs[rng.integers(0, base.size // 4, size=3)] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    sparse = inverse(Spectrum(base, base.depth, coeffs))
    return dense, sparse, random_atom(base, 0.5, rng).values


def test_sweeps_and_maximal_operators_keep_their_bytes():
    """SHA-256 over the kernel sweeps, and over the maximal operators' results and argmax,
    at n_max 1, M/5 and M: the sweeps' bytes have not moved since the engine replaced
    their own block loop; the operators' bytes are those of the closed-form tail."""
    sweeps, operators = hashlib.sha256(), hashlib.sha256()
    weights = (WeightSpec("log"), WeightSpec("power_log", p=0.3))
    for moduli, depth in _PIN_GEOMETRIES:
        base = make_base(moduli, depth)
        counts = sorted({1, base.size // 5, base.size})
        for n_max in counts:
            sweep = kernel_integral_sweep(base, depth, n_max)
            sweeps.update(sweep.integrals.tobytes() + sweep.running_max.tobytes())
            levels = [n for n in (1, 2) if base.orders[n] <= n_max]
            for loc in localization_sweeps(base, levels, n_max) if levels else ():
                sweeps.update(loc.kernel_ratios.tobytes() + loc.tail_ratios.tobytes())
        for f in _pin_inputs(base, np.random.default_rng(depth * 100 + sum(moduli))):
            for n_max in counts:
                reports = [sigma_star(f, n_max), riesz_star(f, n_max)]
                reports += [weighted_riesz_star(f, weight, n_max) for weight in weights]
                for rep in reports:
                    operators.update(rep.result.values.tobytes() + rep.argmax.tobytes())
    assert (sweeps.hexdigest(), operators.hexdigest()) == (_SWEEPS_SHA256, _MAXIMAL_SHA256)
