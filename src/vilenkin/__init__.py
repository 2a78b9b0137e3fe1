"""Exact finite-truncation harmonic analysis on bounded Vilenkin groups.

Characters and the fast mixed-radix transform, Dirichlet / Fejer / Riesz
logarithmic kernels and means, martingale Hardy quasi-norms, weighted
maximal operators, and the extremal blow-up constructions, all evaluated
exactly on the truncated group and cross-checked against independent
oracles.
"""

from .functions import LevelFunction, constant, indicator, pointwise_sup
from .group import (
    Cylinder,
    GroupPoint,
    NatExpansion,
    VilenkinBase,
    coset_partition,
    load_base,
    make_base,
    nat_expand,
    point_of,
    rank_of,
    unit_point,
    zero_point,
)
from .hardy import (
    CorpusSpec,
    Martingale,
    PAtom,
    assemble_from_atoms,
    hardy_quasinorm,
    martingale_from_function,
    random_atom,
    validate_atom,
)
from .kernels import (
    KernelConvention,
    all_partial_sums,
    convolve,
    dirichlet,
    fejer_kernel,
    fejer_mean,
    gat_closed_form,
    harmonic_sums,
    kernel_integral_sweep,
    localization_sweep,
    partial_sum,
    riesz_kernel,
    riesz_mean,
)
from .maximal import (
    MaximalReport,
    OperatorSpec,
    WeightSpec,
    hp_to_lp_ratio,
    riesz_star,
    sigma_star,
    weighted_riesz_star,
)
from .counterexample import (
    CounterexampleInstance,
    blowup_table,
    build_instance,
    partial_sum_closed_form,
    riesz_at_q,
    shift_identity_check,
)
from .transform import Spectrum, character, forward, forward_naive, inverse, rademacher

__version__ = "0.1.0"
