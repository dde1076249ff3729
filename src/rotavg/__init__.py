"""Exact uniform rotational averages of direction-cosine products and Cartesian tensors."""

from .evaluator import (
    PiCancellationError,
    PiRational,
    TrigPowers,
    ValueCache,
    beta_half_args,
    beta_path,
    closed_form,
    closed_form_terms,
    double_factorial,
    evaluate,
    shared_cache,
    special_no_upper_block,
    special_q1,
    threej000_squared,
    trig_powers,
)
from .oracle import (
    AngleTriple,
    QuadratureSpec,
    default_mc_battery,
    euler_matrix,
    invariance_probe,
    monte_carlo_average,
    quadrature_average,
)
from .power_matrix import (
    ALL_OPS,
    IDENTITY_OP,
    CanonicalForm,
    MultiIndex,
    PowerMatrix,
    SymmetryOp,
    apply_symmetry,
    canonicalize,
    determinant,
    from_multi_index,
    orbit,
    selection_rule,
)
from .propositions import (
    RANK8_EXCEPTION,
    RANK9_EXCEPTION,
    PropositionReport,
    canonical_representatives,
    counterexample_family,
    enumerate_power_matrices,
    enumeration_count,
    first_order_term,
    prop_converse_witnesses,
    rank_table,
    verify_even_rule,
    verify_odd_rule,
    verify_prime_nonvanishing,
)
from .rationals import RankLimitError, format_rational, parse_rational
from .tensors import (
    ComponentGroup,
    DenseTensor,
    average_component,
    average_tensor,
    group_by_power_matrix,
)

__version__ = "0.1.0"
