import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin.functions import LevelFunction, constant, indicator, pointwise_sup
from vilenkin.group import Cylinder, make_base
from vilenkin.hardy import (
    CorpusSpec,
    Martingale,
    PAtom,
    assemble_from_atoms,
    hardy_quasinorm,
    martingale_from_function,
    random_atom,
    validate_atom,
)
from vilenkin.kernels import partial_sum
from vilenkin.transform import CharacterSampler, forward


def _psi(base, n, level):
    return LevelFunction(base, level, CharacterSampler(base, level).character(n))


def test_martingale_from_character():
    base = make_base((2,), 4)
    m = martingale_from_function(_psi(base, 1, 4))
    assert np.max(np.abs(m.components[0].values)) < 1e-15  # mean of psi_1 is zero
    for n in range(1, 5):
        assert m.components[n].max_abs_diff(_psi(base, 1, n)) < 1e-13


def test_martingale_from_constant():
    base = make_base((2, 3), 3)
    m = martingale_from_function(constant(base, 3, 2.5))
    for comp in m.components:
        assert np.allclose(comp.values, 2.5)


def test_martingale_adaptedness_enforced():
    base = make_base((2,), 2)
    good = martingale_from_function(LevelFunction(base, 2, [1.0, 2.0, 3.0, 4.0]))
    assert good.top_level == 2
    bad = (
        constant(base, 0, 5.0),  # inconsistent with the finer components
        LevelFunction(base, 1, [0.0, 0.0]),
        LevelFunction(base, 2, [0.0, 0.0, 0.0, 0.0]),
    )
    with pytest.raises(ValueError, match="adaptedness"):
        Martingale(base, bad)
    # NaN compares false with any tolerance, and a NaN top component makes the tolerance NaN
    nan_middle = (constant(base, 0, 2.5), LevelFunction(base, 1, [np.nan, 3.5]), LevelFunction(base, 2, [1, 2, 3, 4]))
    nan_top = (constant(base, 0, 2.5), LevelFunction(base, 1, [1.5, 3.5]), LevelFunction(base, 2, [1, 2, 3, np.nan]))
    for comps in (nan_middle, nan_top):
        with pytest.raises(ValueError, match="adaptedness"):
            Martingale(base, comps)


@pytest.mark.parametrize("p, support_level", [(0.3, 8), (0.2, 8), (0.1, 6)])
def test_adaptedness_tolerance_scales_with_atom_height(p, support_level):
    # sup norms of 1e10..1e23: averaging error exceeds any absolute tolerance
    base = make_base((2, 3), 10)
    atom = random_atom(base, p, np.random.default_rng(0), level_range=(support_level, support_level))
    mart = martingale_from_function(atom.values)
    assert mart.top_level == atom.values.level
    assert np.isfinite(hardy_quasinorm(mart, p))


def test_adaptedness_violation_rejected_at_any_scale():
    base = make_base((2,), 2)
    good = martingale_from_function(LevelFunction(base, 2, [1.0, 2.0, 3.0, 4.0]))
    for scale in (1e-12, 1.0, 1e15):
        comps = [c * scale for c in good.components]
        Martingale(base, tuple(comps))
        comps[1] = comps[1] + constant(base, 1, 1e-6 * scale)
        with pytest.raises(ValueError, match="adaptedness"):
            Martingale(base, tuple(comps))


def test_adaptedness_violation_rejected_at_a_wide_step():
    # the step from level 2 to level 3 averages m_2 = 4 cells
    base = make_base((2, 3, 4), 3)
    good = martingale_from_function(LevelFunction(base, 3, np.arange(24.0)))
    comps = list(good.components)
    comps[3] = comps[3] + indicator(Cylinder(base, 3, 5), 3, 1e-3)  # moves one level-2 average by 2.5e-4
    with pytest.raises(ValueError, match="components 2 and 3 violate adaptedness"):
        Martingale(base, tuple(comps))


def test_maximal_function_examples():
    base = make_base((2,), 3)
    single = Martingale(base, (constant(base, 0, -2.0 + 1.5j),))
    assert np.allclose(pointwise_sup(single.components).values, 2.5)
    m = martingale_from_function(_psi(base, 1, 3))
    assert np.allclose(pointwise_sup(m.components).values, 1.0)


def test_maximal_function_dominates_components():
    rng = np.random.default_rng(3)
    base = make_base((2, 3), 4)
    f = LevelFunction(base, 4, rng.standard_normal(36) + 1j * rng.standard_normal(36))
    m = martingale_from_function(f)
    star = pointwise_sup(m.components)
    for comp in m.components:
        gap = star - comp.modulus()
        assert np.min(gap.values.real) >= -1e-12


def test_maximal_function_matches_averaging_oracle():
    # brute-force oracle: max over levels of |block average around each point|
    rng = np.random.default_rng(13)
    base = make_base((2, 3, 2), 3)
    f = LevelFunction(base, 3, rng.standard_normal(12))
    star = pointwise_sup(martingale_from_function(f).components)
    for r in range(base.size):
        best = 0.0
        for n in range(base.depth + 1):
            width = base.size // base.orders[n]
            block = f.values[(r // width) * width : (r // width + 1) * width]
            best = max(best, abs(block.mean()))
        assert star.values[r].real == pytest.approx(best)


def test_hardy_quasinorm_examples():
    base = make_base((2,), 4)
    m = martingale_from_function(_psi(base, 1, 4))
    for p in (0.3, 0.5, 1.0, 2.0):
        assert hardy_quasinorm(m, p) == pytest.approx(1.0)
    c = martingale_from_function(constant(base, 4, -3.0))
    assert hardy_quasinorm(c, 0.5) == pytest.approx(3.0)


def test_hardy_dominates_l1_for_function_martingales():
    rng = np.random.default_rng(23)
    base = make_base((2, 3), 4)
    for _ in range(10):
        f = LevelFunction(base, 4, rng.standard_normal(36) + 1j * rng.standard_normal(36))
        m = martingale_from_function(f)
        assert hardy_quasinorm(m, 1.0) >= f.lp_quasinorm(1.0) - 1e-12


def test_martingale_spectrum_stabilizes():
    base = make_base((2,), 4)
    rng = np.random.default_rng(31)
    f = LevelFunction(base, 4, rng.standard_normal(16))
    m = martingale_from_function(f)
    top = forward(m.top).coeffs
    # indices resolvable at a coarser level already carry the same coefficient
    for n in range(1, 5):
        part = forward(m.components[n]).coeffs
        assert np.max(np.abs(part - top[: base.orders[n]])) < 1e-12


# ----------------------------------------------------------------------
# atoms


def test_character_atom_on_whole_group_is_valid():
    base = make_base((2,), 3)
    atom = PAtom(0.5, Cylinder(base, 0, 0), _psi(base, 1, 3))
    check = validate_atom(atom)
    assert check.ok, check.failures
    for p in (0.0, float("nan")):
        with pytest.raises(ValueError, match="atom exponent must be positive"):
            validate_atom(PAtom(p, atom.support, atom.values))


def test_constant_function_is_not_an_atom():
    base = make_base((2,), 3)
    atom = PAtom(0.5, Cylinder(base, 0, 0), constant(base, 3))
    check = validate_atom(atom)
    assert not check.ok
    assert "mean_not_zero" in check.failures


def test_child_difference_atom():
    base = make_base((2,), 4)
    level = 2
    p = 0.5
    support = Cylinder(base, level, 0)
    amp = base.orders[level] ** (1 / p)
    kids = base.moduli[level]
    child0 = Cylinder(base, level + 1, 0)
    child1 = Cylinder(base, level + 1, 1)
    f = indicator(child0, 4, amp) - indicator(child1, 4, amp)
    atom = PAtom(p, support, f)
    assert validate_atom(atom).ok
    # exceeding the sup bound flips exactly that diagnostic
    too_big = PAtom(p, support, f * 1.5)
    check = validate_atom(too_big)
    assert check.failures == ("sup_bound_exceeded",)


def test_support_violation_detected():
    base = make_base((2,), 3)
    atom = PAtom(1.0, Cylinder(base, 1, 0), constant(base, 3, 0.5))
    check = validate_atom(atom)
    assert "support_violated" in check.failures


def test_random_atoms_always_validate():
    rng = np.random.default_rng(77)
    for moduli, depth in (((2,), 8), ((2, 3), 5), ((3,), 4)):
        base = make_base(moduli, depth)
        for p in (0.3, 0.5, 1.0):
            for _ in range(10):
                atom = random_atom(base, p, rng, level_range=(0, depth - 1))
                check = validate_atom(atom)
                assert check.ok, check.failures
                # saturation is exact
                bound = atom.support.measure ** (-1 / p)
                assert np.max(np.abs(atom.values.values)) == pytest.approx(bound)


def test_random_atom_refuses_extra_depth_zero():
    # one cell per support: every zero-mean draw would be degenerate, and the retry loop never ends
    base = make_base((2,), 6)
    with pytest.raises(ValueError, match="extra depth must be >= 1, got 0"):
        random_atom(base, 0.5, np.random.default_rng(0), extra_depth=0)


def test_random_atom_refuses_empty_level_range():
    base = make_base((2,), 4)
    rng = np.random.default_rng(1)
    # depth 4 minus the 2 extra levels leaves support levels 0..2
    with pytest.raises(ValueError, match=r"range \[5, 5\] is empty .* = 2 \(depth 4, extra depth 2\)"):
        random_atom(base, 0.5, rng, level_range=(5, 5))
    with pytest.raises(ValueError, match=r"range \[2, 1\]"):
        random_atom(base, 0.5, rng, level_range=(2, 1))
    assert random_atom(base, 0.5, rng, level_range=(2, 5)).support.level == 2


def test_assemble_single_atom_resolves_to_itself():
    base = make_base((2,), 5)
    rng = np.random.default_rng(5)
    atom = random_atom(base, 0.5, rng, level_range=(1, 1))
    out = assemble_from_atoms(base, [atom], [1.0], 5)
    assert out.component.max_abs_diff(atom.values.at_level(5)) < 1e-12
    assert out.budget == pytest.approx(1.0)


def test_assemble_empty_is_zero():
    base = make_base((2,), 3)
    out = assemble_from_atoms(base, [], [], 2)
    assert np.max(np.abs(out.component.values)) == 0.0
    assert out.budget == 0.0


def test_assemble_length_mismatch():
    base = make_base((2,), 3)
    with pytest.raises(ValueError):
        assemble_from_atoms(base, [], [1.0], 2)


def test_assemble_components_match_partial_sums():
    # the level-n component of the series is S_{M_n} of the full sum
    base = make_base((2,), 6)
    rng = np.random.default_rng(8)
    atoms = [random_atom(base, 0.5, rng, level_range=(0, 3)) for _ in range(5)]
    coeffs = rng.uniform(-2, 2, size=5).tolist()
    full = sum(mu * a.values.at_level(6) for mu, a in zip(coeffs, atoms))
    for n in (0, 2, 4, 6):
        comp = assemble_from_atoms(base, atoms, coeffs, n).component
        assert comp.at_level(6).max_abs_diff(partial_sum(full, base.orders[n])) < 1e-10


def test_assembled_martingale_is_adapted_and_budgeted():
    base = make_base((2, 3), 4)
    rng = np.random.default_rng(9)
    atoms = [random_atom(base, 0.5, rng, level_range=(0, 2)) for _ in range(6)]
    coeffs = rng.uniform(0.2, 1.5, size=6).tolist()
    comps = tuple(
        assemble_from_atoms(base, atoms, coeffs, n).component for n in range(base.depth + 1)
    )
    mart = Martingale(base, comps)  # adaptedness enforced on construction
    budget = sum(abs(mu) ** 0.5 for mu in coeffs)
    ratio = hardy_quasinorm(mart, 0.5) / budget**2
    assert np.isfinite(ratio) and ratio > 0


def test_corpus_spec_roundtrip_and_determinism():
    spec = CorpusSpec(
        moduli=(2, 3), depth=6, p=0.5, count=4, seed=99, support_level_min=1, support_level_max=3
    )
    again = CorpusSpec.from_json(spec.to_json())
    assert again == spec
    a = spec.generate()
    b = spec.generate()
    for x, y in zip(a, b):
        assert x.support == y.support
        assert x.values.max_abs_diff(y.values) == 0.0


def test_corpus_spec_refuses_a_negative_count():
    fields = dict(moduli=(2,), depth=6, p=0.5, seed=1, support_level_min=1, support_level_max=3)
    assert CorpusSpec(count=0, **fields).generate() == []
    with pytest.raises(ValueError, match="count must be >= 0"):
        CorpusSpec(count=-1, **fields)
    text = CorpusSpec(count=2, **fields).to_json().replace('"count": 2', '"count": -2')
    with pytest.raises(ValueError, match="count must be >= 0"):
        CorpusSpec.from_json(text)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_pointwise_sup_matches_the_refine_to_top_oracle(pattern, seed):
    # the level-by-level fold against refining every modulus to the top level
    depth = 1
    while depth < len(pattern) and np.prod(pattern[: depth + 1]) <= 4096:
        depth += 1
    base = make_base(tuple(pattern[:depth]), depth)
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, depth + 1, size=int(rng.integers(1, 7)))  # repeats, in no order
    family = [
        LevelFunction(base, lv, rng.standard_normal(base.orders[lv]) + 1j * rng.standard_normal(base.orders[lv]))
        for lv in levels
    ]
    top = int(levels.max())
    oracle = np.max(np.stack([np.abs(f.at_level(top).values) for f in family]), axis=0)
    star = pointwise_sup(family)
    assert star.level == top
    assert np.array_equal(star.values, oracle)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_tower_martingale_matches_conditional_expectations(pattern, seed):
    # every E_n g, from every level of g at or above n, against NumPy's block means of f; moduli up to 9 cover m >= 8
    depth = 1
    while depth < len(pattern) and np.prod(pattern[: depth + 1]) <= 4096:
        depth += 1
    base = make_base(tuple(pattern[:depth]), depth)
    rng = np.random.default_rng(seed)
    level = int(rng.integers(0, depth + 1))
    f = LevelFunction(base, level, rng.standard_normal(base.orders[level]) + 1j * rng.standard_normal(base.orders[level]))
    m = martingale_from_function(f)
    assert m.top_level == level
    tol = 1e-13 * float(np.max(np.abs(f.values)))
    for n, comp in enumerate(m.components):
        oracle = f.values.reshape(base.orders[n], -1).mean(axis=1)
        assert comp.level == n
        assert np.max(np.abs(comp.values - oracle)) <= tol
        for above in m.components[n:]:
            got = above.conditional_expectation(n)
            assert got.level == n
            assert np.max(np.abs(got.values - oracle)) <= tol


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=8), st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 1.0]))
def test_tower_martingale_passes_the_public_check(pattern, seed, p):
    # martingale_from_function skips the adaptedness check; the tower's components pass it anyway
    depth = 1
    while depth < len(pattern) and np.prod(pattern[: depth + 1]) <= 4096:
        depth += 1
    base = make_base(tuple(pattern[:depth]), depth)
    rng = np.random.default_rng(seed)
    level = int(rng.integers(0, depth + 1))
    size = base.orders[level]
    scale = 10.0 ** rng.integers(-3, 4)
    inputs = [LevelFunction(base, level, scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size)))]
    if depth >= 2:
        inputs.append(random_atom(base, p, rng, extra_depth=int(rng.integers(1, depth))).values)
    for g in inputs:
        m = martingale_from_function(g)
        assert type(m) is Martingale
        Martingale(m.base, m.components)  # raises on components that are not adapted
