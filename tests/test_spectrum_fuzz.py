"""Property test of ``spectrum`` over random gain graphs.

Claims covered:
    - for any gain graph on n 0..16 vertices with any edge set, k 1..8
      (mixed or not at k 4), and any tol from 1e-15 to 1, ``spectrum``
      returns n eigenvalues in ascending order, each within tol * ||H||_F of
      numpy.linalg.eigvalsh, and never raises NumericError
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import gainswitch as gs  # noqa: E402

given, settings = hypothesis.given, hypothesis.settings


@st.composite
def gain_graphs(draw):
    k = draw(st.integers(1, 8))
    mixed = k == 4 and draw(st.booleans())
    n = draw(st.integers(0, 16))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    pool = gs.MIXED_EXPONENTS if mixed else tuple(range(k))
    arcs = [(u, v, draw(st.sampled_from(pool))) for u, v in chosen]
    return gs.build_gain_graph(n, gs.GainGroup(k), arcs, mixed_mode=mixed)


@settings(max_examples=300, deadline=None)
@given(gain_graphs(), st.integers(-15, 0), st.sampled_from((1.0, 2.5, 7.0)))
def test_spectrum_is_within_tol_of_eigvalsh(g, exponent, mantissa):
    tol = mantissa * 10.0**exponent
    h = gs.hermitian_matrix(g)
    got = np.array(gs.spectrum(g, tol).eigenvalues)
    assert len(got) == g.graph.n
    assert list(got) == sorted(got)
    assert np.abs(got - np.linalg.eigvalsh(h)).max(initial=0.0) <= tol * np.linalg.norm(h)
