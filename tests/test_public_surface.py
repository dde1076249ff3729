"""The public names of the package and the CLI's options stay available.

Refactors may add to either surface but never drop from it: scripts, the
benchmark and outside callers import these names and pass these options.
"""

import argparse

import pytest

import rotavg
from rotavg.cli import build_parser

EXPORTED = [
    # evaluator
    "PiCancellationError", "PiRational", "TrigPowers", "ValueCache", "beta_half_args",
    "beta_path", "closed_form", "closed_form_terms", "double_factorial", "evaluate",
    "shared_cache", "special_no_upper_block", "special_q1", "threej000_squared", "trig_powers",
    # oracle
    "AngleTriple", "QuadratureSpec", "default_mc_battery", "euler_matrix", "invariance_probe",
    "monte_carlo_average", "quadrature_average",
    # power_matrix
    "ALL_OPS", "IDENTITY_OP", "CanonicalForm", "MultiIndex", "PowerMatrix", "SymmetryOp",
    "apply_symmetry", "canonicalize", "determinant", "from_multi_index", "orbit",
    "selection_rule",
    # propositions
    "RANK8_EXCEPTION", "RANK9_EXCEPTION", "PropositionReport", "canonical_representatives",
    "counterexample_family", "enumerate_power_matrices", "enumeration_count",
    "first_order_term", "prop_converse_witnesses", "rank_table", "verify_even_rule",
    "verify_odd_rule", "verify_prime_nonvanishing",
    # rationals
    "format_rational", "parse_rational",
    # tensors
    "ComponentGroup", "DenseTensor", "RankLimitError", "average_component", "average_tensor",
    "group_by_power_matrix",
    "__version__",
]

OPTIONS = {
    "compute": ["-h", "--help", "--chi", "--indices", "--max-rank"],
    "average": ["-h", "--help", "--out", "--nonzero-only", "--max-rank"],
    "enumerate": [
        "-h", "--help", "-n", "--rank", "--nonzero", "--canonical", "--format", "--threads",
        "--max-rank",
    ],
    "verify": [
        "-h", "--help", "--suite", "-n", "--ranks", "--threads", "--mc-samples", "--seed",
    ],
}

# the values of each option that takes one of a fixed set
CHOICES = {
    ("verify", "--suite"): ["oracle", "beta", "props", "mc", "all"],
    ("enumerate", "--format"): ["json", "csv"],
}


@pytest.mark.parametrize("name", EXPORTED)
def test_name_is_exported(name):
    assert hasattr(rotavg, name)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_keeps_its_options(command):
    parser = _subcommands()[command]
    present = {s for action in parser._actions for s in action.option_strings}
    assert set(OPTIONS[command]) <= present


@pytest.mark.parametrize("command,option", sorted(CHOICES))
def test_option_keeps_its_choices(command, option):
    parser = _subcommands()[command]
    (action,) = [a for a in parser._actions if option in a.option_strings]
    assert set(CHOICES[command, option]) <= set(action.choices)
