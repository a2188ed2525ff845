"""Hypothesis strategies for square matrices, shared by the SPD kernel and
mixture-weight tests."""

import numpy as np
from hypothesis import strategies as st


_EDGE_ENTRIES = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 1.7976931348623157e308, 5e-324]


def _entries():
    return st.one_of(
        st.floats(-10.0, 10.0),
        st.floats(1e306, 1.7976931348623157e308).flatmap(lambda v: st.sampled_from([v, -v])),
        st.sampled_from(_EDGE_ENTRIES),
    )


def symmetric_matrix(draw, k):
    a = np.zeros((k, k))
    a[np.tril_indices(k)] = draw(st.lists(_entries(), min_size=k * (k + 1) // 2,
                                          max_size=k * (k + 1) // 2))
    return np.tril(a) + np.tril(a, -1).T


def random_cell(draw, k):
    return draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))


@st.composite
def asymmetry_cases(draw):
    """Square matrices, 1x1 to 6x6, symmetric up to a few entries moved off
    their mirror by about atol: just inside, at, or just outside it. Some
    entries are near +/-1e308; some matrices get a NaN or +/-inf entry,
    alone or mirrored."""
    k = draw(st.integers(1, 6))
    a = symmetric_matrix(draw, k)
    with np.errstate(all="ignore"):
        atol = 1e-8 * (1.0 + np.abs(a).max())
        for _ in range(draw(st.integers(0, 3)) if k > 1 else 0):
            i = draw(st.integers(1, k - 1))
            j = draw(st.integers(0, i - 1))
            factor = draw(st.sampled_from([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 1e6]))
            sign = draw(st.sampled_from([1.0, -1.0]))
            a[i, j] = a[j, i] + sign * factor * atol
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i, j = random_cell(draw, k)
        a[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if draw(st.booleans()):
            a[j, i] = a[i, j]
    return a.tolist()
