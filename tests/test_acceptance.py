"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with the measured quantity.  Run with `pytest -v
tests/test_acceptance.py` (add -s to see the lines on success).

Criteria 1-6 are computed by the `check_*` functions of `vilenkin.verify`,
the same code the `verify` suites run; each test asserts the returned pass
flag and also applies its own literal bounds and time budgets here."""

import time

import numpy as np

from vilenkin.cli import main
from vilenkin.counterexample import blowup_table
from vilenkin.functions import LevelFunction
from vilenkin.group import make_base
from vilenkin.hardy import CorpusSpec
from vilenkin.maximal import WeightSpec
from vilenkin.transform import forward, forward_naive, inverse
from vilenkin.verify import (
    check_complement_mass,
    check_dirichlet_blocks,
    check_dyadic_fejer,
    check_identities,
    check_kernel_integrals,
    check_localization,
)

SEED = 20260810


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random(base, level, rng):
    n = base.orders[level]
    return LevelFunction(base, level, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_criterion_1_dirichlet_block_closed_form():
    start = time.monotonic()
    check = check_dirichlet_blocks((((2,), 12), ((2, 3), 7), ((3,), 6)))
    worst = check.detail["residual"]
    elapsed = time.monotonic() - start
    _report(
        "criterion 1 (Dirichlet block closed form)",
        check.passed and worst < 1e-12 and elapsed < 10.0,
        f"residual={worst:.3e} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_dyadic_fejer_closed_form():
    start = time.monotonic()
    check = check_dyadic_fejer(10)
    worst = check.detail["residual"]
    elapsed = time.monotonic() - start
    _report(
        "criterion 2 (dyadic Fejer closed form, exponents <= 10)",
        check.passed and worst < 1e-10 and elapsed < 10.0,
        f"residual={worst:.3e} elapsed={elapsed:.1f}s",
    )


def test_criterion_3_summation_identities():
    start = time.monotonic()
    # Abel rearrangements of means and kernels, dyadic and non-dyadic; then
    # partial-sum cases, the shift identity, and the modulus-sum identity
    cases = (((2,), 12, (2, 37, 512)), ((2, 3), 8, (2, 61, 512)))
    checks = check_identities(SEED, cases, cases, (((2,), 12), ((2, 3), 8)))
    worst = max(c.detail.get("residual", 0.0) for c in checks)
    elapsed = time.monotonic() - start
    _report(
        "criterion 3 (summation identities)",
        all(c.passed for c in checks) and worst < 1e-9 and elapsed < 60.0,
        f"residual={worst:.3e} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_kernel_integral_boundedness():
    check = check_kernel_integrals((2,), 12, 4096)
    growth = check.detail["growth_top_octaves"]
    recorded_max = check.detail["running_max"]
    _report(
        "criterion 4 (kernel integral running max)",
        check.passed and growth < 0.01,
        f"recorded_max={recorded_max:.6f} growth_2^10_to_2^12={growth:.5f}",
    )


def test_criterion_5_localization_ratio_stability():
    checks = check_localization((2,), 12, 4096, range(1, 6))
    worst_growth = 0.0
    c_emp = {}
    for check in checks:
        for which in ("kernel", "tail"):
            for kind in ("pair", "single"):
                if f"{which}_{kind}_c_emp" not in check.detail:
                    continue
                key = f"{which}/{kind}"
                c_emp[key] = max(c_emp.get(key, 0.0), check.detail[f"{which}_{kind}_c_emp"])
                worst_growth = max(worst_growth, check.detail[f"{which}_{kind}_top_octave_growth"])
    ok = all(c.passed for c in checks) and np.isfinite(max(c_emp.values())) and worst_growth <= 0.01
    _report(
        "criterion 5 (localization bound ratios)",
        ok,
        f"c_emp={ {k: round(v, 4) for k, v in c_emp.items()} } top_octave_growth={worst_growth:.5f}",
    )


def test_criterion_6_atom_corpus_weighted_riesz():
    start = time.monotonic()
    stable = True
    maxima = {}
    for moduli, depth in (((2,), 10), ((2, 3), 7)):
        spec = CorpusSpec(
            moduli=moduli, depth=depth, p=0.5, count=100, seed=SEED,
            support_level_min=1, support_level_max=4,
        )
        check = check_complement_mass(spec)  # the corpus at depth and at depth + 1
        m_d, m_d1 = check.detail["corpus_max"], check.detail["corpus_max_deeper"]
        maxima[str(moduli)] = (m_d, m_d1)
        stable = stable and check.passed and np.isfinite(m_d) and abs(m_d - m_d1) <= 0.10 * m_d1
    elapsed = time.monotonic() - start
    _report(
        "criterion 6 (half-atom corpus, complement mass of weighted maximal)",
        stable and elapsed < 300.0,
        f"corpus_maxima={ {k: (round(a, 6), round(b, 6)) for k, (a, b) in maxima.items()} } "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_7_blowup_mechanism():
    start = time.monotonic()
    base = make_base((2,), 13)
    unit = blowup_table(base, WeightSpec("unit"), 0.5, range(1, 6))
    ratios = unit.ratios()
    gain = ratios[-1] / ratios[0]
    log_table = blowup_table(base, WeightSpec("log"), 0.5, range(1, 6))
    elapsed = time.monotonic() - start
    ok = (
        unit.monotone
        and gain >= 2.0
        and unit.flag == "increasing"
        and log_table.flag != "increasing"
        and elapsed < 120.0
    )
    _report(
        "criterion 7 (blow-up mechanism)",
        ok,
        f"unit_ratios={[round(r, 4) for r in ratios]} gain={gain:.2f} "
        f"log_flag={log_table.flag} elapsed={elapsed:.1f}s",
    )


def test_criterion_8_hardy_norm_scaling():
    base = make_base((2,), 13)
    spreads = {}
    ok = True
    for p in (0.3, 0.5, 1.0):
        col = [row.hardy_scaling for row in blowup_table(base, WeightSpec("unit"), p, range(1, 6)).rows]
        spread = max(col) / min(col)
        spreads[p] = spread
        ok = ok and spread < 4.0
    _report(
        "criterion 8 (Hardy norm scaling across stages)",
        ok,
        f"max/min per p: { {p: round(s, 6) for p, s in spreads.items()} }",
    )


def test_criterion_9_transform_quality():
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    for moduli, depth in (((2,), 10), ((2, 3), 8), ((3,), 6)):
        base = make_base(moduli, depth)
        assert base.size <= 1296
        f = _random(base, depth, rng)
        fast = forward(f).coeffs
        naive = forward_naive(f).coeffs
        worst_rel = max(worst_rel, float(np.max(np.abs(fast - naive)) / np.max(np.abs(naive))))
    parseval_worst = 0.0
    base = make_base((2, 3), 6)
    for _ in range(100):
        f = _random(base, 6, rng)
        lhs = float(np.sum(np.abs(forward(f).coeffs) ** 2))
        rhs = float(np.mean(np.abs(f.values) ** 2))
        parseval_worst = max(parseval_worst, abs(lhs - rhs) / rhs)
    roundtrip_worst = 0.0
    for moduli, depth in (((2,), 10), ((5, 4, 3), 3)):
        b = make_base(moduli, depth)
        f = _random(b, depth, rng)
        roundtrip_worst = max(roundtrip_worst, inverse(forward(f)).max_abs_diff(f))
    ok = worst_rel < 1e-10 and parseval_worst < 1e-10 and roundtrip_worst < 1e-9
    _report(
        "criterion 9 (transform quality)",
        ok,
        f"fast_vs_naive={worst_rel:.3e} parseval={parseval_worst:.3e} roundtrip={roundtrip_worst:.3e}",
    )


def test_criterion_10_seeded_runs_are_byte_identical(tmp_path):
    pairs = []
    for tag, args in (
        (
            "atoms-corpus",
            ["--base", "2,3", "--depth", "7", "--seed", str(SEED), "atoms", "corpus",
             "--count", "8", "--p", "0.5"],
        ),
        (
            "counterexample-sweep",
            ["--base", "2", "--depth", "11", "counterexample", "sweep", "--phi", "log",
             "--p", "0.5", "--kmax", "4"],
        ),
    ):
        a = tmp_path / f"{tag}-a"
        b = tmp_path / f"{tag}-b"
        for path in (a, b):
            code = main(args[:0] + ["--out", str(path)] + args)
            assert code == 0
        pairs.append((tag, a.read_bytes() == b.read_bytes()))
    ok = all(same for _, same in pairs)
    _report(
        "criterion 10 (byte-identical seeded runs)",
        ok,
        ", ".join(f"{tag}={'identical' if same else 'DIFFERS'}" for tag, same in pairs),
    )
