import numpy as np
import pytest

from vilenkin import hardy, kernels, transform
from vilenkin.functions import LevelFunction, constant, indicator, pointwise_sup
from vilenkin.group import Cylinder, make_base
from vilenkin.transform import CharacterSampler

TOL = 1e-9


def _random(base, level, rng):
    n = base.orders[level]
    return LevelFunction(base, level, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_integrate_constant_and_block():
    base = make_base((2, 3), 4)
    assert constant(base, 4).integrate() == pytest.approx(1.0)
    # a cylinder indicator scaled by the cylinder count integrates to one
    for level in range(base.depth + 1):
        cell = Cylinder(base, level, 0)
        f = indicator(cell, base.depth, base.orders[level])
        assert f.integrate() == pytest.approx(1.0)


def test_integrate_character_orthogonal_to_constants():
    base = make_base((2,), 3)
    psi1 = LevelFunction(base, 3, CharacterSampler(base, 3).character(1))
    assert abs(psi1.integrate()) < 1e-15


def test_lp_quasinorm_examples():
    base = make_base((2,), 1)
    assert constant(base, 1, -3 + 4j).lp_quasinorm(0.7) == pytest.approx(5.0)
    f = LevelFunction(base, 1, [2.0, 0.0])
    assert f.lp_quasinorm(0.5) == pytest.approx(0.5)  # ((1/2) sqrt 2)^2
    base2 = make_base((3, 2), 2)
    for n in range(base2.size):
        psi = LevelFunction(base2, 2, CharacterSampler(base2, 2).character(n))
        for p in (0.3, 1.0, 2.0):
            assert psi.lp_quasinorm(p) == pytest.approx(1.0)


def test_norms_reject_nonpositive_parameters():
    base = make_base((2,), 1)
    f = constant(base, 1)
    with pytest.raises(ValueError):
        f.lp_quasinorm(0.0)
    with pytest.raises(ValueError):
        f.weak_lp(-1.0)
    with pytest.raises(ValueError):
        f.weak_lp_at(0.5, 0.0)
    for norm in (f.lp_quasinorm, f.weak_lp, lambda p: f.weak_lp_at(p, 0.5)):
        with pytest.raises(ValueError, match="p must be positive, got nan"):
            norm(float("nan"))


def test_norms_reject_non_finite_values():
    base = make_base((2,), 2)
    for bad in (np.nan, np.inf, complex(1.0, np.nan)):
        f = LevelFunction(base, 2, [1.0, bad, 0.0, 2.0])
        with pytest.raises(ValueError, match="not finite"):
            f.weak_lp(0.5)
        with pytest.raises(ValueError, match="not finite"):
            f.lp_quasinorm(0.5)
    all_nan = LevelFunction(base, 2, [np.nan] * 4)
    with pytest.raises(ValueError, match="not finite"):
        all_nan.weak_lp(1.0)


def test_weak_lp_examples():
    base = make_base((2,), 1)
    assert constant(base, 1, 3.0).weak_lp(0.5) == pytest.approx(np.sqrt(3.0))
    f = LevelFunction(base, 1, [2.0, 0.0])
    # candidates: lambda -> 2 gives sqrt(2) * 1/2; the max over the value set
    assert f.weak_lp(0.5) == pytest.approx(np.sqrt(2.0) / 2.0)
    assert constant(base, 1, 0.0).weak_lp(0.5) == 0.0


def test_weak_lp_matches_brute_force_grid():
    base = make_base((2, 3), 3)
    rng = np.random.default_rng(3)
    f = _random(base, 3, rng)
    mods = np.abs(f.values)
    p = 0.4
    brute = max(v**p * np.mean(mods >= v) for v in mods if v > 0)
    assert f.weak_lp(p) == pytest.approx(brute)


def test_weak_lp_chebyshev():
    rng = np.random.default_rng(11)
    base = make_base((2, 3, 2), 3)
    for _ in range(25):
        f = _random(base, 3, rng)
        for p in (0.4, 1.0, 1.7):
            assert f.weak_lp(p) <= f.lp_quasinorm(p) ** p + 1e-12


def test_weak_lp_at_threshold_form():
    base = make_base((2,), 2)
    f = LevelFunction(base, 2, [4.0, 1.0, 1.0, 0.0])
    # mu(|f| >= 1) = 3/4 at threshold 1
    assert f.weak_lp_at(2.0, 1.0) == pytest.approx(np.sqrt(3 / 4))
    assert f.weak_lp_at(0.5, 4.0) == pytest.approx(4.0 * (1 / 4) ** 2)


def test_conditional_expectation_examples():
    base = make_base((2,), 2)
    f = LevelFunction(base, 2, [4.0, 0.0, 0.0, 0.0])
    e1 = f.conditional_expectation(1)
    assert e1.level == 1
    assert np.allclose(e1.values, [2.0, 0.0])
    assert f.conditional_expectation(2).max_abs_diff(f) == 0.0
    e0 = f.conditional_expectation(0)
    assert e0.values[0] == pytest.approx(f.integrate())


def test_conditional_expectation_projection():
    rng = np.random.default_rng(5)
    base = make_base((3, 2, 2), 3)
    f = _random(base, 3, rng)
    e = f.conditional_expectation(1)
    assert e.conditional_expectation(1).max_abs_diff(e) < 1e-15
    assert e.integrate() == pytest.approx(f.integrate())
    with pytest.raises(ValueError):
        e.conditional_expectation(2)


def test_pointwise_algebra():
    base = make_base((2, 2), 2)
    rng = np.random.default_rng(9)
    f = LevelFunction(base, 2, rng.standard_normal(4))
    zero = constant(base, 2, 0.0)
    assert (f + zero).max_abs_diff(f) == 0.0
    assert pointwise_sup([f, -f]).max_abs_diff(f.modulus()) < 1e-15
    coarse = constant(base, 1, 2.0)
    mixed = f + coarse  # auto-refines to level 2
    assert mixed.level == 2
    assert np.allclose(mixed.values, f.values + 2.0)


def test_pointwise_sup_of_a_signed_family_is_its_moduli():
    base = make_base((2, 2), 2)
    fine = LevelFunction(base, 2, [-3.0, 1.0, -0.5, 2.0])
    coarse = constant(base, 1, -2.5)  # listed after the finer function, refined to it
    sup = pointwise_sup([fine, coarse])
    assert sup.level == 2
    assert np.array_equal(sup.values, [3.0, 2.5, 2.5, 2.5])


def test_refinement_preserves_norms():
    rng = np.random.default_rng(1)
    base = make_base((2, 3, 2, 2), 4)
    f = _random(base, 2, rng)
    g = f.at_level(4)
    assert g.integrate() == pytest.approx(f.integrate())
    for p in (0.5, 1.0, 2.5):
        assert g.lp_quasinorm(p) == pytest.approx(f.lp_quasinorm(p))
        assert g.weak_lp(p) == pytest.approx(f.weak_lp(p))


def test_effective_level_compress():
    base = make_base((2, 2, 2), 3)
    f = constant(base, 1, 5.0).at_level(3)
    assert f.effective_level() == 0
    g = f.compress()
    assert g.level == 0
    assert g.at_level(3).max_abs_diff(f) == 0.0


def test_p_monotonicity_on_probability_space():
    rng = np.random.default_rng(21)
    base = make_base((2, 3), 4)
    for _ in range(20):
        f = _random(base, 4, rng)
        assert f.lp_quasinorm(0.5) <= f.lp_quasinorm(1.0) + 1e-12
        assert f.lp_quasinorm(1.0) <= f.lp_quasinorm(2.0) + 1e-12


def test_values_are_read_only():
    base = make_base((2,), 1)
    f = constant(base, 1)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def _index(f):
    return min(5, f.base.orders[f.level])  # a mean index the level resolves


_PRODUCERS = {
    "forward": lambda f: [transform.forward(f)],
    "inverse": lambda f: [transform.inverse(transform.forward(f))],
    "partial_sum": lambda f: [kernels.partial_sum(f, _index(f))],
    "fejer_mean": lambda f: [kernels.fejer_mean(f, _index(f))],
    "riesz_mean": lambda f: [kernels.riesz_mean(f, _index(f))],
    "conditional_expectation": lambda f: [f.conditional_expectation(n) for n in range(f.level + 1)],
    "at_level": lambda f: [f.at_level(f.base.depth)],
    "martingale_from_function": lambda f: list(hardy.martingale_from_function(f).components),
}


@pytest.mark.parametrize("level", [0, 1, 3])
@pytest.mark.parametrize("producer", sorted(_PRODUCERS))
def test_returned_arrays_are_read_only(producer, level):
    f = _random(make_base((2, 3), 4), level, np.random.default_rng(level))
    for out in _PRODUCERS[producer](f):
        arr = out.coeffs if isinstance(out, transform.Spectrum) else out.values
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


@pytest.mark.parametrize("cls", [LevelFunction, transform.Spectrum])
def test_public_constructor_copies_the_callers_array(cls):
    base = make_base((2, 3), 2)
    arr = np.arange(6, dtype=np.complex128)
    obj = cls(base, 2, arr)
    arr[:] = -1.0  # the caller's array stays writeable
    held = obj.coeffs if cls is transform.Spectrum else obj.values
    assert np.array_equal(held, np.arange(6))


@pytest.mark.parametrize("cls", [LevelFunction, transform.Spectrum])
def test_adopt_keeps_the_array_and_refuses_what_it_would_have_to_convert(cls):
    base = make_base((2, 3), 2)
    arr = np.arange(6, dtype=np.complex128)
    obj = cls._adopt(base, 2, arr)
    assert (obj.coeffs if cls is transform.Spectrum else obj.values) is arr
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="complex128"):
        cls._adopt(base, 2, np.arange(6, dtype=np.float64))
    with pytest.raises(ValueError, match="expected 6 .* at level 2, got shape"):
        cls._adopt(base, 2, np.zeros(5, dtype=np.complex128))
    with pytest.raises(ValueError, match="expected 6 .* at level 2, got shape"):
        cls._adopt(base, 2, np.zeros((2, 3), dtype=np.complex128))
    with pytest.raises(ValueError, match="C-contiguous"):
        cls._adopt(base, 2, np.zeros(12, dtype=np.complex128)[::2])


def test_mismatched_bases_rejected():
    f = constant(make_base((2, 2)), 2)
    g = constant(make_base((2, 3)), 2)
    with pytest.raises(ValueError, match="mismatched"):
        f + g

