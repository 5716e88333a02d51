"""The two numpy primitives ``CostSensitiveClassifier`` scores with.

Its bit-identity to the per-class seed rests on two equivalences, pinned
here directly (``test_vectorized_bit_identity.py`` pins the classifier
as a whole):

* ``np.vecdot(W[:, :f], x)`` is one BLAS ``ddot`` per row — bit for bit
  the seed's per-class ``w @ x`` on each 1-D row, and the per-row
  ``W[i, :f].dot(x)`` loop from two features up (a one-element ``.dot``
  keeps the sign of a lone ``-0.0`` product; ``ddot`` sums from
  ``+0.0``).  A GEMV (``W @ x``) reduces in a different order and fails
  these properties.
* ``np.clip(e, -c, c)`` is the seed's scalar clip, elementwise, on NaN,
  ±inf and ±0, including ``c == 0``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.costsensitive import CostSensitiveClassifier

_values = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e3, max_value=1e3, width=64),
)


@st.composite
def _rows_and_x(draw):
    """A ``(classes, features + 1)`` matrix — scored through its strided
    ``[:, :features]`` view, as the classifier does — and a feature
    vector."""
    classes = draw(st.integers(min_value=2, max_value=49))
    features = draw(st.integers(min_value=1, max_value=16))
    weights = draw(
        arrays(np.float64, (classes, features + 1), elements=_values)
    )
    x = draw(arrays(np.float64, features, elements=_values))
    return weights, x


def _row_products(w, x):
    """The seed's per-class ``weights @ x``, one 1-D row at a time."""
    return np.array([w[i] @ x for i in range(w.shape[0])])


@settings(max_examples=300, deadline=None)
@given(_rows_and_x())
def test_vecdot_is_the_per_row_dot_loop_bit_for_bit(case):
    weights, x = case
    w = weights[:, :x.size]
    scores = np.vecdot(w, x).tobytes()
    assert scores == _row_products(w, x).tobytes()
    if x.size > 1:
        dots = np.array([w[i].dot(x) for i in range(w.shape[0])])
        assert scores == dots.tobytes()


@settings(max_examples=300, deadline=None)
@given(_rows_and_x())
def test_classifier_scores_are_row_dots_plus_bias(case):
    weights, x = case
    classes, features = weights.shape[0], x.size
    classifier = CostSensitiveClassifier(classes, features)
    classifier.weights[:] = weights
    expected = _row_products(weights[:, :features], x) + weights[:, features]
    assert classifier.predicted_costs(x).tobytes() == expected.tobytes()


def _scalar_clip(error, clip):
    if error > clip:
        return clip
    if error < -clip:
        return -clip
    return error


_edges = [0.0, -0.0, math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None)
@given(
    errors=st.lists(
        st.one_of(st.sampled_from(_edges), st.floats(width=64)),
        min_size=1, max_size=49,
    ),
    clip=st.one_of(
        st.sampled_from([0.0, 0.5, 100.0, math.inf]),
        st.floats(min_value=0.0, max_value=1e6),
    ),
)
def test_clip_is_the_scalar_clip_on_nan_inf_and_signed_zero(errors, clip):
    clipped = np.array(errors, dtype=float)
    np.clip(clipped, -clip, clip, out=clipped)
    expected = np.array(
        [_scalar_clip(error, clip) for error in errors], dtype=float
    )
    assert clipped.tobytes() == expected.tobytes()
