"""Each refusal rule has one implementation; every entry point goes through it.

A rule written out by hand at each entry point drifts: ``threshold <= 0``
lets NaN through where ``not threshold > 0`` does not.  These tests feed
the same bad values to every public entry point of a rule, so a new copy
that disagrees shows up here.
"""

import re

import numpy as np
import pytest

from vilenkin.counterexample import blowup_table
from vilenkin.functions import LevelFunction, constant, pointwise_sup
from vilenkin.group import Cylinder, make_base
from vilenkin.hardy import CorpusSpec, Martingale, PAtom, assemble_from_atoms, random_atom, validate_atom
from vilenkin.kernels import convolve
from vilenkin.maximal import WeightSpec

_BASE = make_base((2,), 4)
_ONE = constant(_BASE, 4, 1.0)
_WHOLE = Cylinder.from_rank(_BASE, 0, 0)

# entry point -> (call with the bad value, refusal message for it)
_POSITIVE = {
    "lp_quasinorm": (lambda v: _ONE.lp_quasinorm(v), "p must be positive, got {}"),
    "weak_lp": (lambda v: _ONE.weak_lp(v), "p must be positive, got {}"),
    "weak_lp_at-p": (lambda v: _ONE.weak_lp_at(v, 0.5), "p must be positive, got {}"),
    "weak_lp_at-threshold": (lambda v: _ONE.weak_lp_at(0.5, v), "threshold must be positive, got {}"),
    "blowup_table": (lambda v: blowup_table(_BASE, WeightSpec.unit(), v, range(1, 2)), "p must be positive, got {}"),
    "validate_atom": (lambda v: validate_atom(PAtom(v, _WHOLE, _ONE)), "atom exponent must be positive, got {}"),
    "random_atom": (lambda v: random_atom(_BASE, v, np.random.default_rng(0)), "atom exponent must be positive, got {}"),
    "CorpusSpec": (
        lambda v: CorpusSpec((2,), 6, v, 0, 1, support_level_min=1, support_level_max=3),
        "atom exponent must be positive, got {}",
    ),
    # the weights keep their own wording, which names the kind
    "WeightSpec.power_log": (WeightSpec.power_log, "weight kind 'power_log' needs a positive exponent p"),
    "WeightSpec.power_log_sq": (WeightSpec.power_log_sq, "weight kind 'power_log_sq' needs a positive exponent p"),
}


@pytest.mark.parametrize("value", [float("nan"), 0.0], ids=["nan", "zero"])
@pytest.mark.parametrize("entry", sorted(_POSITIVE))
def test_every_positive_parameter_refuses_nan_and_zero(entry, value):
    call, message = _POSITIVE[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
        call(value)


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
