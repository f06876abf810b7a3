"""Property tests for graph construction from edge columns.

Claims covered:
    - ``build_gain_graph`` and ``SimpleGraph`` give the same ``edges``,
      ``csr`` (its rows: each vertex's sorted neighbours, as ``neighbors``
      gives them, and their edge ids), ``edge_index``, ``exps`` and
      ``mixed_mode`` as a plain per-edge
      reference (sorted canonical pairs), for arcs in scrambled orientation
      and order, k 1..8, n 0..9, and vertices and gains given as exact
      ints, numpy ints (vertices) and ``GainExponent``s (gains)
    - the columns hold exact ints whatever int-like type came in
"""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import gainswitch as gs  # noqa: E402

given, settings = hypothesis.given, hypothesis.settings

VERTEX_TYPES = (int, np.int64, np.int32)


@st.composite
def scrambled_arcs(draw):
    """``(n, k, mixed, arcs, reference)``: arcs as build_gain_graph takes them,
    and the reference exponent of each canonical pair."""
    k = draw(st.integers(1, 8))
    mixed = k == 4 and draw(st.booleans())
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    order = draw(st.permutations(pairs))  # scrambled order
    chosen = order[: draw(st.integers(0, len(order)))]
    pool = gs.MIXED_EXPONENTS if mixed else tuple(range(k))
    group = gs.GainGroup(k)
    arcs, reference = [], {}
    for u, v in chosen:
        t = draw(st.sampled_from(pool))
        reference[u, v] = t
        if draw(st.booleans()):  # the reverse orientation carries the conjugate
            u, v, t = v, u, -t % k
        gain = group.element(t) if draw(st.booleans()) else t
        to_u, to_v = draw(st.sampled_from(VERTEX_TYPES)), draw(st.sampled_from(VERTEX_TYPES))
        arcs.append((to_u(u), to_v(v), gain))
    return n, k, mixed, arcs, reference


def reference_views(n, pairs):
    edges = tuple(sorted(pairs))
    adjacency = tuple(tuple(sorted(w for e in edges if v in e for w in e if w != v)) for v in range(n + 1))
    incidence = tuple(
        tuple(i for w in adjacency[v] for i, e in enumerate(edges) if e == (min(v, w), max(v, w)))
        for v in range(n + 1)
    )
    return edges, adjacency, incidence, {e: i for i, e in enumerate(edges)}


def assert_views(graph, n, pairs):
    edges, adjacency, incidence, index = reference_views(n, pairs)
    assert graph.n == n and graph.m == len(edges)
    assert graph.edges == edges
    assert graph.tails == tuple(u for u, _ in edges) and graph.heads == tuple(v for _, v in edges)
    assert {type(x) for x in graph.tails + graph.heads} <= {int}
    offsets, neighbours, edge_ids = graph.csr
    rows = [slice(offsets[v], offsets[v + 1]) for v in range(n + 1)]
    assert tuple(neighbours[r] for r in rows) == adjacency
    assert tuple(map(graph.neighbors, range(1, n + 1))) == adjacency[1:]
    assert tuple(edge_ids[r] for r in rows) == incidence
    assert offsets == (0, *itertools.accumulate(map(len, adjacency)))
    assert neighbours == sum(adjacency, ()) and edge_ids == sum(incidence, ())
    assert graph.edge_index == index


@settings(max_examples=200, deadline=None)
@given(scrambled_arcs())
def test_build_gain_graph_matches_the_per_edge_reference(case):
    n, k, mixed, arcs, reference = case
    g = gs.build_gain_graph(n, gs.GainGroup(k), arcs, mixed_mode=mixed)
    assert_views(g.graph, n, reference)
    assert g.exps == tuple(reference[e] for e in sorted(reference))
    assert {type(t) for t in g.exps} <= {int}
    assert g.mixed_mode == mixed
    assert gs.parse_gg(gs.format_gg(g)) == (g, ())


@settings(max_examples=200, deadline=None)
@given(scrambled_arcs())
def test_simple_graph_matches_the_per_edge_reference(case):
    n, _, _, arcs, reference = case
    graph = gs.SimpleGraph(np.int64(n) if n % 2 else n, [(u, v) for u, v, _ in arcs])
    assert_views(graph, n, reference)
    assert type(graph.n) is int
