import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin.counterexample import (
    RieszProbe,
    _weighted_probe,
    blowup_table,
    build_instance,
    partial_sum_closed_form,
    riesz_at_q,
    shift_identity_check,
)
from vilenkin.functions import LevelFunction, constant, pointwise_sup
from vilenkin.group import make_base
from vilenkin.hardy import hardy_quasinorm, martingale_from_function
from vilenkin.kernels import dirichlet, harmonic_sums, partial_sum, riesz_mean
from vilenkin.maximal import WeightSpec
from vilenkin.transform import CharacterSampler, Spectrum, forward, inverse


def test_build_instance_dyadic_stage_one():
    base = make_base((2,), 13)
    inst = build_instance(1, base)
    assert inst.f.max_abs_diff(dirichlet(base, 8, 3) - dirichlet(base, 4, 3)) < 1e-12
    coeffs = forward(inst.f.at_level(13)).coeffs
    expected = np.zeros(base.size)
    expected[4:8] = 1.0
    assert np.max(np.abs(coeffs - expected)) < 1e-10
    assert abs(inst.f.integrate()) < 1e-12
    # sup realized on the deep zero cylinder with value M_3 - M_2
    assert np.max(np.abs(inst.f.values)) == pytest.approx(4.0)
    assert inst.f.values[0].real == pytest.approx(4.0)
    assert inst.probe_indices == (5,)


def test_build_instance_depth_guard():
    base = make_base((2,), 4)
    with pytest.raises(ValueError, match="depth"):
        build_instance(2, base)


@pytest.mark.parametrize("moduli,depth", [((2,), 8), ((2, 3), 6)])
def test_partial_sum_case_values_exhaustive(moduli, depth):
    base = make_base(moduli, depth)
    for k in (1, 2):
        if 2 * k + 1 > depth:
            continue
        inst = build_instance(k, base)
        for i in range(base.size + 1):
            closed = partial_sum_closed_form(inst, i)
            assert closed.max_abs_diff(partial_sum(inst.f.at_level(closed.level), i)) < 1e-10
            if i <= inst.block_start:
                assert np.max(np.abs(closed.values)) < 1e-12
            elif i >= inst.block_stop:
                assert closed.max_abs_diff(inst.f) < 1e-12


def test_shift_identity_first_index():
    base = make_base((2,), 7)
    inst = build_instance(1, base)
    m = inst.block_start
    lhs = dirichlet(base, m + 1, inst.f.level) - dirichlet(base, m, inst.f.level)
    psi = CharacterSampler(base, inst.f.level).character(m)
    assert np.max(np.abs(lhs.values - psi)) < 1e-12  # both sides are the block character
    assert shift_identity_check(inst, 1) < 1e-12


@pytest.mark.parametrize("moduli,depth", [((2,), 11), ((2, 3), 6)])
def test_shift_identity_full_stated_range(moduli, depth):
    base = make_base(moduli, depth)
    for k in (1, 2):
        if 2 * k + 1 > depth:
            continue
        inst = build_instance(k, base)
        for j in range(1, inst.block_start):
            assert shift_identity_check(inst, j) < 1e-10


def test_shift_identity_range_check():
    base = make_base((2,), 7)
    inst = build_instance(1, base)
    with pytest.raises(ValueError):
        shift_identity_check(inst, 0)
    with pytest.raises(ValueError):
        shift_identity_check(inst, inst.block_start)


def test_riesz_probe_identity_and_bounds():
    base = make_base((2,), 13)
    inst = build_instance(3, base)
    for s in range(inst.k):
        probe = riesz_at_q(inst, s, WeightSpec("unit"))
        assert probe.identity_residual_on_support < 1e-9
        assert probe.triangle_slack < 1e-12  # modulus never beats the term-wise sum
        assert probe.shell_ratio > 0.25
    with pytest.raises(ValueError):
        riesz_at_q(inst, 3, WeightSpec("unit"))


def test_riesz_probe_first_stage_single_term():
    # s = 0 probes q = M_{2k} + 1; the single surviving term makes the
    # weighted modulus exactly 1 / (l_q (1 + M_{2k})) everywhere
    base = make_base((2,), 9)
    for k in (1, 2):
        inst = build_instance(k, base)
        probe = riesz_at_q(inst, 0, WeightSpec("unit"))
        q = inst.probe_indices[0]
        expect = 1.0 / (harmonic_sums(q)[q] * (1 + inst.block_start))
        assert np.max(np.abs(probe.weighted.values.real - expect)) < 1e-12


def test_riesz_probe_constant_on_support_class():
    base = make_base((2,), 13)
    inst = build_instance(2, base)
    probe = riesz_at_q(inst, 1, WeightSpec("unit"))
    width = base.orders[inst.f.level] // base.orders[2]
    on_class = probe.weighted.values[:width].real
    assert np.max(on_class) - np.min(on_class) < 1e-13
    assert probe.shell_value == pytest.approx(on_class[0])


def test_blowup_table_unit_weight_grows():
    base = make_base((2,), 9)
    table = blowup_table(base, WeightSpec("unit"), 0.5, range(1, 4))
    ratios = table.ratios()
    assert table.monotone
    assert table.flag == "increasing"
    assert ratios[-1] / ratios[0] > 2.0
    for row in table.rows:
        assert row.hardy_scaling == pytest.approx(1.0, rel=1e-5)
        assert row.analytic_lower_bound == pytest.approx(row.k)


def test_blowup_table_weak_route():
    base = make_base((2,), 9)
    table = blowup_table(base, WeightSpec("unit"), 0.3, range(1, 3))
    assert all(np.isfinite(r.ratio) and r.ratio > 0 for r in table.rows)
    # the threshold event has positive measure by construction
    assert table.rows[0].numerator > 0


@pytest.mark.parametrize("moduli, depth", [((2,), 15), ((2, 3), 9), ((2, 3, 5), 7), ((3,), 7), ((5,), 5)])
def test_weak_threshold_event_is_the_whole_group(moduli, depth):
    # the s = 0 probe is the constant lambda = 1 / (phi(q0) l_q0 q0), so mu(sup >= lambda) = 1
    # at every stage and the weak numerator lambda * mu^(1/p) is lambda itself; the measured
    # route (the sup of every probe at the instance level, then its threshold expression) agrees
    base = make_base(moduli, depth)
    stages = range(1, (depth - 1) // 2 + 1)
    weights = (
        WeightSpec("unit"),
        WeightSpec("log"),
        WeightSpec("power_log", p=0.3),
        WeightSpec("power_log_sq", p=0.3),
    )
    for weight in weights:
        for p in (0.3, 1.0):
            for row in blowup_table(base, weight, p, stages).rows:
                q0 = row.probe_indices[0]
                lam = 1.0 / (float(weight.phi(q0)[q0 - 1]) * harmonic_sums(q0)[q0] * q0)
                assert row.numerator == lam, (moduli, weight.kind, p, row.k)
                inst = build_instance(row.k, base)
                phi, harm = weight.phi(inst.probe_indices[-1]), harmonic_sums(inst.probe_indices[-1])
                probes = [_weighted_probe(inst, s, float(phi[q - 1]), harm) for s, q in enumerate(inst.probe_indices)]
                measured = pointwise_sup(probes).at_level(inst.f.level).weak_lp_at(p, lam)
                assert row.numerator == measured, (moduli, weight.kind, p, row.k)


def test_weak_row_checks_the_weight_up_to_the_last_probe():
    # nondecreasing up to q0 = 17 but dipping before the last probe q = 20 of stage 2:
    # reading phi(q0) alone would accept it
    weight = WeightSpec.custom(list(range(1, 18)) + [10.0] * 10)
    with pytest.raises(ValueError, match=r"^weight is not nondecreasing on \[1, 20\]$"):
        blowup_table(make_base((2,), 9), weight, 0.3, range(2, 3))


_PROBE_CELLS = 4096  # most cells at the instance level 2k + 1
_PROBE_WEIGHTS = (
    WeightSpec("unit"),
    WeightSpec("log"),
    WeightSpec("power_log", p=0.3),
    WeightSpec("power_log_sq", p=0.3),
    WeightSpec.custom(range(1, _PROBE_CELLS + 1)),
)


@st.composite
def _instance_bases(draw):
    """A random mixed-radix base (moduli 2-7) at the deepest odd level 2k + 1 >= 3
    that keeps at most _PROBE_CELLS cells."""
    pattern = draw(st.lists(st.integers(2, 7), min_size=1, max_size=4))
    orders = list(itertools.accumulate(itertools.islice(itertools.cycle(pattern), 15), lambda a, m: a * m))
    depth = max(d for d in range(3, 16, 2) if orders[d - 1] <= _PROBE_CELLS)  # M_3 <= 7^3 always fits
    return make_base(pattern, depth)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_instance_bases())
def test_coarse_probe_matches_the_riesz_mean_of_the_instance(base):
    """The probe synthesized at level 2s from its known weights, refined, against
    the Riesz mean of the instance itself; and the spectrum that shortcut rests on."""
    for k in range(1, (base.depth - 1) // 2 + 1):
        inst = build_instance(k, base)
        expected = np.zeros(base.orders[inst.f.level])
        expected[inst.block_start : inst.block_stop] = 1.0
        assert np.max(np.abs(forward(inst.f).coeffs - expected)) < 1e-10
        for s in range(1, k):
            q = inst.probe_indices[s]
            mean = riesz_mean(inst.f, q).modulus()
            for weight in _PROBE_WEIGHTS:
                probe = riesz_at_q(inst, s, weight).weighted
                oracle = (1.0 / float(weight.phi(q)[q - 1])) * mean
                assert probe.max_abs_diff(oracle) <= 1e-13 * np.max(np.abs(probe.values)), (k, s, weight.kind)


def _instance_level_probe(inst, s, weight):
    """The probe with its bound and diagnostics walked on every cell of the
    instance level 2k + 1, its weights sliced from the harmonic sums directly."""
    q = inst.probe_indices[s]
    phi = float(weight.phi(q)[q - 1])
    harm = harmonic_sums(q)
    if s == 0:
        weighted = constant(inst.base, 0, 1.0 / (phi * harm[q] * q))
    else:
        w = 1.0 - harm[inst.block_start : q] / harm[q]
        weighted = (1.0 / phi) * inverse(Spectrum(inst.base, 2 * s, w)).modulus()
    base = inst.base
    level = inst.f.level
    weighted = weighted.at_level(level)

    m = inst.block_start
    m2s = base.orders[2 * s]
    total = base.orders[level]
    bound_vals = np.zeros(total, dtype=np.float64)
    for j, d in enumerate(CharacterSampler(base, level).partial_sums(m2s), start=1):
        bound_vals += np.abs(d) / (j + m)
    bound_vals /= phi * harm[q]

    support_width = total // base.orders[2 * s]
    diff = np.real(weighted.values) - bound_vals
    identity_residual = float(np.max(np.abs(diff[:support_width])))
    triangle_slack = float(np.max(diff))

    shell_start = support_width // base.moduli[2 * s]  # past the zero level-(2s+1) block
    shell_value = float(np.real(weighted.values[shell_start]))
    lower = m2s**2 / (phi * harm[q] * m)
    return RieszProbe(s, q, weighted, identity_residual, triangle_slack, shell_value, lower)


# (2, 2, 3): the level-2s sampler is float64 for s <= 1, the instance-level one complex128
@pytest.mark.parametrize(
    "moduli, depth", [((2,), 13), ((2, 3), 9), ((3,), 7), ((5,), 5), ((2, 2, 3), 9), ((2, 3, 5), 7)]
)
@pytest.mark.parametrize(
    "weight", [WeightSpec("unit"), WeightSpec("log"), WeightSpec("power_log", p=0.3)], ids=lambda w: w.kind
)
def test_riesz_probe_matches_the_instance_level_route(moduli, depth, weight):
    base = make_base(moduli, depth)
    scalars = [f.name for f in dataclasses.fields(RieszProbe) if f.name != "weighted"]
    for k in range(1, (depth - 1) // 2 + 1):
        inst = build_instance(k, base)
        for s in range(k):
            got, want = riesz_at_q(inst, s, weight), _instance_level_probe(inst, s, weight)
            assert got.weighted.level == want.weighted.level
            assert got.weighted.values.tobytes() == want.weighted.values.tobytes(), (k, s)
            for name in scalars:
                assert getattr(got, name) == getattr(want, name), (k, s, name)


@pytest.mark.parametrize("moduli, depth", [((2,), 9), ((2, 3), 7)])
def test_blowup_sup_is_the_max_of_the_riesz_probes(moduli, depth):
    base = make_base(moduli, depth)
    k, weight = 3, WeightSpec("log")
    inst = build_instance(k, base)
    probes = [np.real(riesz_at_q(inst, s, weight).weighted.values) for s in range(inst.k)]
    sup = LevelFunction(base, inst.f.level, np.max(probes, axis=0))
    row = blowup_table(base, weight, 0.5, range(k, k + 1)).rows[0]
    assert row.numerator == sup.lp_quasinorm(0.5)


def test_blowup_hardy_norm_against_direct_computation():
    # the spectrum starts at M_2k, so every martingale component below the top is an exact zero
    for moduli, depth in (((2,), 13), ((2, 3), 9), ((3,), 7), ((5,), 5)):
        base = make_base(moduli, depth)
        stages = range(1, (depth - 1) // 2 + 1)
        martingales = [martingale_from_function(build_instance(k, base).f) for k in stages]
        for p in (0.3, 0.5, 1.0):
            rows = blowup_table(base, WeightSpec("unit"), p, stages).rows
            assert [row.hardy_norm for row in rows] == [hardy_quasinorm(m, p) for m in martingales], (moduli, p)


def test_hardy_norm_scaling_flat_for_dyadic():
    base = make_base((2,), 11)
    for p in (0.3, 0.5, 1.0):
        col = [row.hardy_scaling for row in blowup_table(base, WeightSpec("unit"), p, range(1, 6)).rows]
        assert max(col) / min(col) < 1.001


def test_non_dyadic_spot_check():
    base = make_base((2, 3), 6)
    inst = build_instance(1, base)
    # block [M_2, M_3) = [6, 12)
    assert inst.block_start == 6 and inst.block_stop == 12
    coeffs = forward(inst.f).coeffs
    expected = np.zeros(base.orders[3])
    expected[6:12] = 1.0
    assert np.max(np.abs(coeffs - expected)) < 1e-10
    probe = riesz_at_q(inst, 0, WeightSpec("unit"))
    assert probe.identity_residual_on_support < 1e-10
