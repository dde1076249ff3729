import sys

import hypothesis.strategies as st
import pytest

from rotavg import ALL_OPS, PowerMatrix, ValueCache, enumerate_power_matrices, evaluator, selection_rule
from rotavg.power_matrix import _selection_flat, canonical_flat


@st.composite
def power_matrices(draw, max_rank=6):
    """Random exponent matrices built by dropping rank-many factors into cells."""
    n = draw(st.integers(min_value=0, max_value=max_rank))
    cells = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    flat = [0] * 9
    for c in cells:
        flat[c] += 1
    return PowerMatrix.from_flat(flat)


symmetry_ops = st.sampled_from(ALL_OPS)


def _selection_passing(max_rank):
    out = []
    for n in range(max_rank + 1):
        out.extend(chi for chi in enumerate_power_matrices(n) if selection_rule(chi))
    return out


# every selection-rule-passing matrix of rank <= 6; cheap to precompute and
# avoids filter-heavy hypothesis strategies
SELECTION_PASSING_6 = _selection_passing(6)

selection_passing = st.sampled_from(SELECTION_PASSING_6)


@st.composite
def selection_passing_past_rank8(draw, upper=None):
    """Selection-passing matrices of rank 9-16, optionally with a fixed (Q, R, T, U).

    Every row and column sum has the rank's parity p exactly when the matrix
    is a 0/1 pattern with those sums plus twice a nonnegative matrix.  The
    pattern follows from p and its upper-left 2x2 block, so nothing is
    drawn only to be rejected.  With ``upper`` given, those four entries
    stay as given and the doubled part fills the other five cells.
    """
    p = draw(st.integers(0, 1))
    if upper is None:
        Q, R, T, U = (draw(st.integers(0, 1)) for _ in range(4))
        free = range(9)
    else:
        Q, R, T, U = upper
        free = (2, 5, 6, 7, 8)
    W, X = (p - Q - T) % 2, (p - R - U) % 2
    flat = [Q, R, (p - Q - R) % 2, T, U, (p - T - U) % 2, W, X, (p - W - X) % 2]
    n = draw(st.sampled_from(range(10 - p, 17, 2)))
    size = (n - sum(flat)) // 2
    for cell in draw(st.lists(st.sampled_from(free), min_size=size, max_size=size)):
        flat[cell] += 2
    return PowerMatrix.from_flat(flat)


@pytest.fixture(scope="session")
def cache():
    """One evaluator cache shared across the whole test session."""
    return ValueCache()


@pytest.fixture
def closed_form_calls(monkeypatch):
    """The flats rotavg.evaluator.closed_form runs on during the test, in call order."""
    calls = []
    original = evaluator.closed_form

    def counted(chi):
        calls.append(chi.flat)
        return original(chi)

    monkeypatch.setattr(evaluator, "closed_form", counted)
    return calls


@pytest.fixture
def digit_limit():
    """The interpreter's int-string limit, set to its default of 4300 digits for the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integers of any length")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


def nonzero_sign_minima(flats):
    """The sorted orbit minima of the selection-passing flats whose orbit sign is not 0."""
    return sorted({rep for rep, sign in map(canonical_flat, filter(_selection_flat, flats)) if sign})
