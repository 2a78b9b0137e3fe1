"""Each refusal rule has one implementation; every entry point goes through it.

A rule written out by hand at each entry point drifts: ``threshold <= 0``
lets NaN through where ``not threshold > 0`` does not.  These tests feed
the same bad values to every public entry point of a rule, so a new copy
that disagrees shows up here.
"""

import ast
import hashlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import vilenkin
from vilenkin.cli import main
from vilenkin.counterexample import blowup_table, build_instance, partial_sum_closed_form
from vilenkin.functions import LevelFunction, constant, indicator, pointwise_sup
from vilenkin.group import Cylinder, make_base, point_of, unit_point, zero_point
from vilenkin.hardy import CorpusSpec, Martingale, PAtom, assemble_from_atoms, random_atom, validate_atom
from vilenkin.kernels import (
    convolve,
    gat_closed_form,
    gat_kernel,
    harmonic_sums,
    kernel_integral_sweep,
    localization_sweeps,
)
from vilenkin.maximal import WeightSpec
from vilenkin.transform import CharacterSampler, rademacher
from vilenkin.verify import check_identities, check_kernel_integrals, run_suite

_BASE = make_base((2,), 4)
_ONE = constant(_BASE, 4, 1.0)
_WHOLE = Cylinder(_BASE, 0, 0)

# entry point -> (call with the bad value, refusal message for it)
_POSITIVE = {
    "lp_quasinorm": (lambda v: _ONE.lp_quasinorm(v), "p must be positive, got {}"),
    "weak_lp": (lambda v: _ONE.weak_lp(v), "p must be positive, got {}"),
    "weak_lp_at-p": (lambda v: _ONE.weak_lp_at(v, 0.5), "p must be positive, got {}"),
    "weak_lp_at-threshold": (lambda v: _ONE.weak_lp_at(0.5, v), "threshold must be positive, got {}"),
    "blowup_table": (lambda v: blowup_table(_BASE, WeightSpec("unit"), v, range(1, 2)), "p must be positive, got {}"),
    "validate_atom": (lambda v: validate_atom(PAtom(v, _WHOLE, _ONE)), "atom exponent must be positive, got {}"),
    "random_atom": (lambda v: random_atom(_BASE, v, np.random.default_rng(0)), "atom exponent must be positive, got {}"),
    "CorpusSpec": (
        lambda v: CorpusSpec((2,), 6, v, 0, 1, support_level_min=1, support_level_max=3),
        "atom exponent must be positive, got {}",
    ),
    # the weights keep their own wording, which names the kind
    "WeightSpec.power_log": (lambda v: WeightSpec("power_log", p=v), "weight kind 'power_log' needs a positive exponent p"),
    "WeightSpec.power_log_sq": (
        lambda v: WeightSpec("power_log_sq", p=v),
        "weight kind 'power_log_sq' needs a positive exponent p",
    ),
}


@pytest.mark.parametrize("value", [float("nan"), 0.0], ids=["nan", "zero"])
@pytest.mark.parametrize("entry", sorted(_POSITIVE))
def test_every_positive_parameter_refuses_nan_and_zero(entry, value):
    call, message = _POSITIVE[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
        call(value)


# entry point -> its refusal of +inf: the same noun, "must be finite"; a weight names its kind and exponent
_FINITE = {
    **{entry: message.replace("positive", "finite") for entry, (_, message) in _POSITIVE.items()},
    "WeightSpec.power_log": "weight kind 'power_log' exponent p must be finite, got {}",
    "WeightSpec.power_log_sq": "weight kind 'power_log_sq' exponent p must be finite, got {}",
}


@pytest.mark.parametrize("entry", sorted(_POSITIVE))
def test_every_positive_parameter_refuses_inf(entry):
    call, _ = _POSITIVE[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(_FINITE[entry].format(float('inf')))}$"):
        call(float("inf"))


_OTHER = constant(make_base((3,), 4), 4, 1.0)
_MISMATCHED = {
    "add": lambda: _ONE + _OTHER,
    "pointwise_sup": lambda: pointwise_sup([_ONE, _OTHER]),
    "convolve": lambda: convolve(_ONE, _OTHER),
    "Martingale": lambda: Martingale(_BASE, (LevelFunction(_OTHER.base, 0, np.ones(1)),)),
    "validate_atom": lambda: validate_atom(PAtom(0.5, _WHOLE, _OTHER)),
    "assemble_from_atoms": lambda: assemble_from_atoms(_BASE, [PAtom(0.5, _WHOLE, _OTHER)], [1.0], 2),
}


@pytest.mark.parametrize("entry", sorted(_MISMATCHED))
def test_every_pair_of_bases_is_checked_alike(entry):
    with pytest.raises(ValueError, match="^mismatched bases$"):
        _MISMATCHED[entry]()


_DEEP = make_base((2,), 6)
_CAPPED = "support-level range [5, 5] is empty once capped at depth - extra_depth = 4 (depth 6, extra depth 2)"
# entry point -> (call with an out-of-range value, the text of the rule's owner)
_RANGE = {
    "CharacterSampler.character": (
        lambda: CharacterSampler(_BASE, 2).character(5),
        "index 5 outside the representable range [0, 4)",
    ),
    "CharacterSampler.partial_sums": (
        lambda: next(CharacterSampler(_BASE, 2).partial_sums(10)),
        "index 10 not resolvable at level 2 (max 4)",
    ),
    "rademacher": (lambda: rademacher(4, zero_point(_BASE)), "position 4 outside [0, 4)"),
    "unit_point": (lambda: unit_point(_BASE, 4), "position 4 outside [0, 4)"),
    "indicator": (
        lambda: indicator(Cylinder(_BASE, 3, 0), 2),
        "level 2 is coarser than the cylinder level 3",
    ),
    "at_level": (lambda: _ONE.at_level(2), "level 2 is coarser than the function level 4"),
    "conditional_expectation": (
        lambda: constant(_BASE, 2, 1.0).conditional_expectation(3),
        "level 2 is coarser than the conditional-expectation level 3",
    ),
    "gat_kernel-coarser": (lambda: gat_kernel(_BASE, 3, 2), "level 2 is coarser than the exponent 3"),
    "gat_kernel-past-depth": (lambda: gat_kernel(_BASE, 2, 6), "level 6 outside [0, 4]"),
    "point_of": (lambda: point_of(_BASE, 9, 3), "index 9 outside the representable range [0, 8)"),
    "Cylinder": (lambda: Cylinder(_BASE, 3, 8), "index 8 outside the representable range [0, 8)"),
    "gat_closed_form": (lambda: gat_closed_form(_BASE, 5, zero_point(_BASE)), "level 5 outside [0, 4]"),
    "localization_sweeps-level-0": (
        lambda: localization_sweeps(_BASE, (0,), 16),
        "partition level 0 outside [1, 4]",
    ),
    "localization_sweeps-depth-plus-one": (
        lambda: localization_sweeps(_BASE, (5,), 16),
        "partition level 5 outside [1, 4]",
    ),
    "random_atom-support-level": (
        lambda: random_atom(_DEEP, 0.5, np.random.default_rng(0), level_range=(5, 5)),
        _CAPPED,
    ),
    "random_atom-negative-support-level": (
        lambda: random_atom(_DEEP, 0.5, np.random.default_rng(0), level_range=(-1, -1)),
        "support-level range [-1, -1] starts below level 0",
    ),
    "partial_sum_closed_form-negative": (
        lambda: partial_sum_closed_form(build_instance(2, _DEEP), -1),
        "partial-sum index must be >= 0, got -1",
    ),
    "partial_sum_closed_form-past-size": (
        lambda: partial_sum_closed_form(build_instance(2, _DEEP), 65),
        "index 65 not resolvable at level 6 (max 64)",
    ),
    "kernel_integral_sweep": (
        lambda: kernel_integral_sweep(_BASE, 4, 17),
        "index 17 not resolvable at level 4 (max 16)",
    ),
    "harmonic_sums": (lambda: harmonic_sums(0), "n_max must be >= 1, got 0"),
    # below n_max = 4 the range n_max/4..n_max starts at n = 0 and the growth has no evidence
    "check_kernel_integrals": (
        lambda: check_kernel_integrals((2,), 2, 3),
        "n_max (the growth is read over n_max/4..n_max) must be >= 4, got 3",
    ),
}


# entry point -> call with a negative seed; numpy's generators would refuse it in words that name no field
_SEED = {
    "CorpusSpec": lambda: CorpusSpec((2,), 6, 0.5, 1, -3, support_level_min=1, support_level_max=3),
    "CorpusSpec.from_json": lambda: CorpusSpec.from_json(
        '{"kind": "atom-corpus", "moduli": [2], "depth": 6, "p": 0.5, "count": 1, "seed": -3,'
        ' "support_level_min": 1, "support_level_max": 3}'
    ),
    "check_identities": lambda: check_identities(-3, (), (), ()),
    "suite_atoms": lambda: run_suite("atoms", seed=-3, count=2),
}


@pytest.mark.parametrize("entry", sorted(_SEED))
def test_every_seed_refuses_a_negative_value_by_name(entry):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
        _SEED[entry]()


@pytest.mark.parametrize("entry", sorted(_RANGE))
def test_every_range_entry_point_refuses_with_its_owner_text(entry):
    call, message = _RANGE[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_an_explicit_support_level_draws_the_same_atom():
    # a fixed level takes no random draw, so the seed alone fixes these bytes
    atom = random_atom(_DEEP, 0.5, np.random.default_rng(14), level_range=(2, 2))
    assert (atom.support.level, atom.support.rank, atom.values.level) == (2, 0, 4)
    digest = hashlib.sha256(atom.values.values.tobytes()).hexdigest()
    assert digest == "6d77c3fbdd57ded17d7e86ccc7aba11b9c04f2ec490d470275a99a1c07ad4965"


# the texts of the range rules, as written in the source
_RANGE_TEXTS = (
    "not resolvable at level",
    "outside the representable range",
    "is coarser than the {noun}",
    "position {k} outside",
    "outside [1, {base.depth}]",
    "seed must be >= 0",
)


@pytest.mark.parametrize("text", _RANGE_TEXTS)
def test_each_range_rule_is_raised_in_one_place(text):
    raises = []
    for path in sorted(Path(vilenkin.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and text in ast.get_source_segment(source, node):
                raises.append(f"{path.name}:{node.lineno}")
    assert len(raises) == 1, raises


def _sweep_refusal(capsys, argv):
    """Exit code, stdout and stderr of ``argv``, with a RuntimeWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("phi", [[], ["--phi", "power_log"]], ids=["unit", "power_log"])
def test_a_sweep_at_a_p_near_zero_is_refused_by_name(tmp_path, capsys, phi):
    """(M_2k + 1)^(1/p - 2) of the analytic bound overflows: one error line naming p, refused
    before the power_log weight table, whose power is as large, overflows first."""
    out = tmp_path / "sweep.csv"
    argv = ["--base", "2", "--depth", "3", "counterexample", "sweep", *phi, "--p", "1e-300", "--kmax", "1"]
    message = "error: p = 1e-300 is too small: (M_2k + 1)^(1/p - 2) overflows float64 at M_2k = 4\n"
    assert _sweep_refusal(capsys, argv) == (2, "", message)
    assert _sweep_refusal(capsys, ["--out", str(out), *argv]) == (2, "", message)
    assert not out.exists()


def test_a_sweep_at_a_huge_p_is_refused_without_a_warning(capsys):
    """|f|^p overflows in the Hardy norm: the refusal is its one error line, with no numpy warning before it."""
    argv = ["--base", "2", "--depth", "3", "counterexample", "sweep", "--p", "1e300", "--kmax", "1"]
    assert _sweep_refusal(capsys, argv) == (2, "", "error: values are not finite (or |f|^p overflows float64)\n")



def _assert_refused(capsys, out, argv, message):
    """``argv`` exits 2 with ``message`` as its one stderr line and nothing on stdout, also with
    ``--out``, and writes no file there."""
    assert _sweep_refusal(capsys, argv) == (2, "", message + "\n")
    assert _sweep_refusal(capsys, ["--out", str(out), *argv]) == (2, "", message + "\n")
    assert not out.exists()


@pytest.mark.parametrize("phi", ["power_log", "power_log_sq"])
def test_a_weight_table_that_overflows_is_refused_by_name(tmp_path, capsys, phi):
    """(n + 1)^(1/p - 2) fits float64 at M_2k = 256, where the analytic bound reads it, but not at
    the last probe index 320, which the weight table reaches: one error line naming the kind, p
    and the first n, with no overflow warning (nor, for power_log_sq, an inf - inf one) before it."""
    argv = ["--base", "2", "--depth", "9", "counterexample", "sweep", "--phi", phi, "--p", "0.0079", "--kmax", "4"]
    message = f"error: p = 0.0079 is too small for weight kind '{phi}': (n + 1)^(1/p - 2) overflows float64 at n = 298"
    _assert_refused(capsys, tmp_path / "sweep.csv", argv, message)


@pytest.mark.parametrize("weight", ["power_log", "power_log_sq"])
def test_a_maximal_table_whose_weight_overflows_is_refused_by_name(tmp_path, capsys, weight):
    """The maximal operators read the same table, to n_max = 256: at p = 0.007 it overflows at n = 154."""
    corpus = tmp_path / "corpus.json"
    atoms = ["atoms", "corpus", "--count", "3", "--p", "0.5"]
    assert main(["--base", "2", "--depth", "8", "--seed", "7", "--out", str(corpus), *atoms]) == 0
    argv = ["maximal", "table", "--op", "riesz", "--weight", weight, "--p", "0.007", "--input", str(corpus)]
    message = f"error: p = 0.007 is too small for weight kind '{weight}': (n + 1)^(1/p - 2) overflows float64 at n = 154"
    _assert_refused(capsys, tmp_path / "table.csv", argv, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--base", "2", "--depth", "9", "counterexample", "sweep", "--p", "0.00775", "--kmax", "4"],
            "error: p = 0.00775 is too small: stage 4's Hardy quasi-norm 4.65e-309 is below float64's normal range",
        ),
        (
            ["--base", "2", "--depth", "19", "counterexample", "sweep", "--phi", "log", "--p", "0.0170", "--kmax", "9"],
            "error: p = 0.017 is too small: stage 9's Hardy quasi-norm 4.8e-314 is below float64's normal range",
        ),
    ],
    ids=["depth-9", "depth-19"],
)
def test_a_sweep_whose_hardy_norm_is_subnormal_is_refused_by_name(tmp_path, capsys, argv, message):
    """The analytic power still fits, but the stage's Hardy quasi-norm has fallen below the normal
    range, where its ratio would carry a relative error far above float64's: one error line naming
    p and the stage."""
    _assert_refused(capsys, tmp_path / "sweep.csv", argv, message)


@pytest.mark.parametrize(
    "p, norm",
    [("0.0029", "1.1e-310"), ("0.002", "0")],
    ids=["subnormal", "underflowed-to-zero"],
)
def test_a_maximal_table_whose_hardy_norm_is_subnormal_is_refused_by_name(tmp_path, capsys, p, norm):
    """Atom 1 of this corpus is nonzero, but its Hardy quasi-norm at p falls below the normal range,
    or underflows to zero: one error line naming p, not an inf ratio or a "zero" norm."""
    corpus = tmp_path / "corpus.json"
    atoms = ["atoms", "corpus", "--count", "3", "--p", "0.5"]
    assert main(["--base", "2", "--depth", "8", "--seed", "7", "--out", str(corpus), *atoms]) == 0
    argv = ["maximal", "table", "--op", "riesz", "--weight", "unit", "--p", p, "--input", str(corpus)]
    message = f"error: p = {p} is too small: the Hardy quasi-norm {norm} is below float64's normal range"
    _assert_refused(capsys, tmp_path / "table.csv", argv, message)
