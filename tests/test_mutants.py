"""Known-wrong forms of the code, each with a check that must catch it.

Each row monkeypatches one function or table into a wrong form and asserts
that the named check passes on the real code and fails under the mutant.
A row that fails means a check no longer guards what it is meant to guard.
"""

import hashlib

import pytest

import rotavg
from rotavg.cli import main
from rotavg.power_matrix import orbit_signs
from rotavg.tensors import _RELABELINGS, _image_order
from test_cli import AVERAGE_STDOUT_SHA256, seeded_dense_tensor, write_tensor


def digest_check(*keys):
    """The TestAverageGolden digests of the dense (rank, mode) tensors in keys."""

    def check(capsys, tmp_path):
        for rank, mode in keys:
            path = write_tensor(tmp_path, "t.json", seeded_dense_tensor(rank, mode, seed=rank))
            assert main(["average", path]) == 0
            digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            assert digest == AVERAGE_STDOUT_SHA256[rank, mode, False]

    return check


def unsigned_relabelings():
    # every relabeling keeps the value's sign, so odd ranks lose the odd ones' negation
    return tuple((relabel, 1) for relabel, _ in _RELABELINGS)


def lab_order(digits, relabel):
    # every image adds its products in the order of the orbit's first lab
    return _image_order(digits, _RELABELINGS[0][0])


def unsigned_orbit_signs(flat):
    # the look-ahead map gives every image of an orbit its first flat's value
    return dict.fromkeys(orbit_signs(flat), 1)


MUTANTS = [
    ("odd-rank-negation-dropped", "_RELABELINGS", unsigned_relabelings, digest_check((5, "exact"), (7, "exact"))),
    ("float-images-in-lab-order", "_image_order", lambda: lab_order, digest_check((7, "float"))),
    ("look-ahead-signs-plus-one", "orbit_signs", lambda: unsigned_orbit_signs, digest_check((5, "exact"), (7, "exact"))),
]


@pytest.mark.parametrize("name,attribute,mutant,check", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_check_catches_mutant(capsys, tmp_path, monkeypatch, name, attribute, mutant, check):
    check(capsys, tmp_path)
    monkeypatch.setattr(rotavg.tensors, attribute, mutant())
    with pytest.raises(AssertionError):
        check(capsys, tmp_path)
