"""Core types: gain groups, exponents, graphs, Hermitian matrices, .gg format.

Claims covered:
    - group axioms hold exhaustively for orders up to 12
    - conjugation is the inverse and an involution
    - quarter-turn gains have bit-exact complex values; others match cmath
    - a ``GainExponent`` holds an exact int: numpy ints are converted, and
      floats, bools and other non-integers raise ValidationError naming it
    - mixed mode accepts only gains 1, i, -i
    - SimpleGraph validates and canonicalizes its edge list; a count or
      vertex that is not an integer raises ValidationError naming it, while
      integer-like counts and vertices (numpy ints) stay accepted, as do
      numpy-int gains and switching exponents
    - graphs whose packed edge keys pass int64 (n = 2^63 + 5, or k = 2^62)
      build and parse to exact columns equal to a plain sorted() reference,
      and a repeated pair or both orientations raise the usual messages
    - hermitian_matrix output is bit-exactly Hermitian with zero diagonal
    - parse/format round-trips every valid gain graph, including k = 4 aliases
    - a graph built by any route (objects, ints, .gg text, identity switching,
      identity automorphism, product with one vertex) is equal, hashes equal,
      and hits the same spectrum cache entry
    - ``GainGraph(...)`` rejects the same bad gains whether they come as
      ints or as ``GainExponent``s, as ``build_gain_graph`` and ``parse_gg`` do
    - building, serialising, parsing and deciding on integers allocate no
      GainExponent; only the values handed to callers are built
    - ``csr`` rows (``neighbors(v)``) come out sorted without a per-vertex
      sort, and the parallel ``edge_ids`` row lists the edge id of each
    - ``degree``, ``neighbors``, a switching function theta(v) and a vertex
      permutation f(v) take numpy ints as vertices and raise
      ValidationError for anything that is not a vertex in 1..n, the graph
      built by either csr route
    - malformed graph data raises the per-entry check's message, and names
      the same entry, whichever of several entries are bad
    - ``parse_gg`` reads comments, tabs, CRLF, blank lines and interleaved
      f lines, and names the first bad line even when a later one is bad too,
      a field past Python's int digit limit included
    - build, .gg round trip, equivalence, first difference, balance,
      negation, bounds and the cactus test build no ``edges`` or
      ``edge_index`` view, and above the array crossover no ``csr``
      tuples; neither does ``automorphisms``, on a graph or on its gains
    - the package exports exactly its five layer modules' ``__all__`` and
      the four error types
"""

import cmath
import itertools
import math
import random
import re
import sys

import numpy as np
import pytest

import gainswitch as gs
from gainswitch.errors import ValidationError

from gainswitch.spectral import _spectrum_cached

from conftest import G4, all_ones, arc_triangle, bowtie_i, bowtie_minus, complete_graph, mixed, random_connected_graph, random_gains, random_graph


def test_group_axioms_exhaustive():
    for k in range(1, 13):
        group = gs.GainGroup(k)
        elems = group.elements()
        assert len(elems) == k
        one = group.one
        for a in elems:
            assert a * one == a
            assert a * a.conj() == one
            assert a.conj().conj() == a
            for b in elems:
                assert a * b == b * a
                for c in elems:
                    assert (a * b) * c == a * (b * c)


def test_group_order_must_be_positive():
    with pytest.raises(ValidationError):
        gs.GainGroup(0)
    with pytest.raises(ValidationError):
        gs.GainGroup(-3)


def test_exponent_reduction_and_mismatch():
    g6 = gs.GainGroup(6)
    assert gs.GainExponent(g6, 2) * gs.GainExponent(g6, 5) == gs.GainExponent(g6, 1)
    with pytest.raises(ValidationError):
        gs.GainExponent(g6, 1) * gs.GainExponent(G4, 1)


def test_exponents_are_exact_ints():
    for exp in (1.0, True, False, "1", None, 1 + 0j):
        with pytest.raises(ValidationError, match=re.escape(f"exponent {exp!r} is not an integer")):
            gs.GainExponent(G4, exp)
    x = gs.GainExponent(G4, np.int64(3))
    assert type(x.exp) is int and x == gs.GainExponent(G4, 3) and x.label() == "-i"
    assert type(G4.element(np.int32(7)).exp) is int
    with pytest.raises(ValidationError, match="exponent 4 out of range"):
        gs.GainExponent(G4, np.int64(4))


def test_quarter_turn_values_are_exact():
    assert gs.GainExponent(G4, 0).value == 1 + 0j
    assert gs.GainExponent(G4, 1).value == 1j
    assert gs.GainExponent(G4, 2).value == -1 + 0j
    assert gs.GainExponent(G4, 3).value == -1j
    g8 = gs.GainGroup(8)
    assert gs.GainExponent(g8, 2).value == 1j
    assert gs.GainExponent(g8, 4).value == -1 + 0j


def test_values_match_cmath_for_all_small_orders():
    for k in range(1, 13):
        group = gs.GainGroup(k)
        for t in range(k):
            want = cmath.exp(2j * math.pi * t / k)
            assert abs(gs.GainExponent(group, t).value - want) < 1e-12


def test_gain_predicates_and_labels():
    assert gs.GainExponent(G4, 0).is_one()
    assert gs.GainExponent(G4, 2).is_minus_one()
    assert gs.GainExponent(G4, 1).is_imaginary_unit()
    assert gs.GainExponent(G4, 3).is_imaginary_unit()
    assert not gs.GainExponent(G4, 0).is_imaginary_unit()
    labels = [gs.GainExponent(G4, t).label() for t in range(4)]
    assert labels == ["1", "i", "-1", "-i"]
    g3 = gs.GainGroup(3)
    assert not gs.GainExponent(g3, 1).is_minus_one()


def test_simple_graph_canonicalizes_and_validates():
    g = gs.SimpleGraph(4, [(3, 1), (2, 1), (4, 2)])
    assert g.edges == ((1, 2), (1, 3), (2, 4))
    assert g.m == 3
    assert g.degree(2) == 2
    assert sorted(g.neighbors(1)) == [2, 3]
    assert g.has_edge(3, 1) and not g.has_edge(3, 4)
    with pytest.raises(ValidationError):
        gs.SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValidationError):
        gs.SimpleGraph(3, [(1, 2), (2, 1)])
    with pytest.raises(ValidationError):
        gs.SimpleGraph(3, [(1, 4)])
    with pytest.raises(ValidationError):
        gs.SimpleGraph(-1, [])


@pytest.mark.parametrize(
    "build, named",
    [
        pytest.param(lambda: gs.SimpleGraph(3, [(1.5, 2)]), "(1.5, 2)", id="float-vertex"),
        pytest.param(lambda: gs.SimpleGraph(3, [(1, 2, 3)]), "(1, 2, 3)", id="triple-edge"),
        pytest.param(lambda: gs.SimpleGraph(3, [("1", 2)]), "('1', 2)", id="str-vertex"),
        pytest.param(lambda: gs.SimpleGraph(3.0, [(1, 2)]), "3.0", id="float-count"),
        pytest.param(lambda: gs.SimpleGraph(3, 5), "5", id="edges-not-iterable"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1.5, 2, 0)]), "(1.5, 2)", id="gains-float-vertex"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [("1", 2, 0)]), "('1', 2, 0)", id="gains-str-vertex"),
        # The bulk pass names nothing itself: every message below, and which of
        # several bad entries it names, comes from the per-entry check.
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1, 2, 0), (2, 2, 1)]),
                     "self-loop at vertex 2", id="self-loop"),
        pytest.param(lambda: gs.SimpleGraph(3, [(1, 2), (3, 3)]), "self-loop at vertex 3", id="simple-self-loop"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1, 2, 0), (3, 1, 1), (2, 1, 1)]),
                     "both orientations (or a repeat) given for pair (1, 2)", id="both-orientations"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(2, 3, 0), (1, 2, 1), (2, 3, 0)]),
                     "both orientations (or a repeat) given for pair (2, 3)", id="repeat"),
        pytest.param(lambda: gs.SimpleGraph(3, [(3, 2), (1, 2), (2, 3)]), "duplicate edge (2, 3)", id="simple-repeat"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1, 2, 0), (4, 1, 0)]),
                     "edge (1,4) out of range 1..3", id="out-of-range"),
        pytest.param(lambda: gs.SimpleGraph(3, [(0, 2)]), "edge (0,2) out of range 1..3", id="simple-out-of-range"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1, 2, 0), (2, 3, True)]),
                     "gain True is neither a GainExponent nor an exponent", id="bool-gain"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1, 2, 1.0)]),
                     "gain 1.0 is neither a GainExponent nor an exponent", id="float-gain"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1, 2, 4)]),
                     "exponent 4 out of range for group of order 4", id="gain-out-of-range"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1, 2, gs.GainGroup(3).element(1))]),
                     "gain group mismatch", id="other-group-gain"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1, 2, 0), (1, 3)]),
                     "edge entry (1, 3) is not a (u, v, gain) triple of integer vertices", id="non-triple"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1, 2, 0), (2, 3.0, 1)]),
                     "edge (2, 3.0) is not a pair of integer vertices", id="gains-float-vertex-named"),
        pytest.param(lambda: gs.build_gain_graph(-1, G4, [(1, 2, 0)]),
                     "vertex count must be nonnegative, got -1", id="negative-count"),
        # Entry faults come before vertex ranges, which come before repeats
        # (SimpleGraph) and vertices that are not integers.
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1, 5, 0), (2, 2, 0)]),
                     "self-loop at vertex 2", id="self-loop-before-range"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1, 7, 0), (3, 2, 9)]),
                     "exponent 9 out of range for group of order 4", id="gain-before-range"),
        pytest.param(lambda: gs.build_gain_graph(3, G4, [(1.5, 2, 0), (1, 4, 0)]),
                     "edge (1,4) out of range 1..3", id="range-before-float"),
        pytest.param(lambda: gs.SimpleGraph(3, [(1, 2), (2, 1), (1, 4)]),
                     "edge (1,4) out of range 1..3", id="simple-range-before-repeat"),
        pytest.param(lambda: gs.SimpleGraph(3, [(1.5, 2), (2, 3), (3, 2)]),
                     "duplicate edge (2, 3)", id="simple-repeat-before-float"),
    ],
)
def test_malformed_graph_data_raises_validation_error(build, named):
    with pytest.raises(ValidationError) as raised:
        build()
    assert named in str(raised.value)


@pytest.mark.parametrize("v", [-1, 0, 4, 2**70, 1.5, "a", None, True, np.float64(2.0)])
@pytest.mark.parametrize("route", ["array", "python"])
def test_degree_and_neighbors_take_only_vertices(v, route, monkeypatch):
    monkeypatch.setattr(gs.gaincore, "_ARRAY_WALK_EDGES", 0 if route == "array" else math.inf)
    graph = gs.SimpleGraph(3, [(1, 2), (2, 3)])
    theta, f = gs.SwitchingFunction(G4, (0, 1, 2)), gs.VertexPermutation((2, 3, 1))
    for look in (graph.degree, graph.neighbors, theta, f):
        with pytest.raises(ValidationError, match=re.escape(f"{v!r} is not a vertex in 1..3")):
            look(v)
    assert [graph.degree(np.int64(v)) for v in (1, 2, 3)] == [1, 2, 1]
    assert type(graph.degree(np.int32(2))) is int and graph.neighbors(np.uint8(2)) == (1, 3)
    assert [theta(np.int64(v)).exp for v in (1, 2, 3)] == [0, 1, 2] and f(np.uint8(3)) == 1


def test_integer_like_graph_data_is_accepted():
    graph = gs.SimpleGraph(np.int64(3), [(np.int64(2), 1), (3, np.int64(2))])
    assert graph.edges == ((1, 2), (2, 3)) and graph.n == 3
    assert gs.SimpleGraph(3, iter([(1, 2)])).edges == ((1, 2),)
    assert gs.SimpleGraph(3, {(2, 3): 0}).edges == ((2, 3),)


def test_numpy_int_gains_are_accepted():
    """Gains and switching exponents take numpy ints, converted to exact ints."""
    g = gs.build_gain_graph(2, G4, [(1, 2, np.int64(1))])
    h = gs.GainGraph(gs.SimpleGraph(2, [(1, 2)]), G4, [np.int64(1)])
    assert g == h == gs.build_gain_graph(2, G4, [(1, 2, 1)])
    assert type(g.exps[0]) is int and type(h.exps[0]) is int
    theta = gs.SwitchingFunction(G4, (np.int64(1), 0))
    assert theta == gs.SwitchingFunction(G4, (1, 0)) and type(theta.exps[0]) is int


def test_components():
    g = gs.SimpleGraph(5, [(1, 2), (4, 5)])
    comps = g.components()
    assert sorted(sorted(c) for c in comps) == [[1, 2], [3], [4, 5]]
    assert g.num_components == 3


def test_components_match_networkx():
    """``components()`` and ``num_components`` equal networkx's on n 0 and 1,
    edgeless and small disconnected graphs, graphs of 500+ edges in several
    components (the level walk, then the queue loop), and 2 x L ladders,
    whose narrow levels hand the walk to the queue loop."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(3110)
    graphs = [gs.SimpleGraph(0, []), gs.SimpleGraph(1, []), gs.SimpleGraph(6, []), gs.SimpleGraph(5, [(2, 4)])]
    graphs += [random_graph(rng) for _ in range(300)]
    for _ in range(12):  # several random connected parts and isolated vertices, relabelled at random
        n = rng.randint(800, 3000)
        label = list(range(1, n + 1))
        rng.shuffle(label)
        cuts = sorted(rng.sample(range(2, n - 20), rng.randint(1, 4)))
        edges = set()
        for lo, hi in zip([0, *cuts], [*cuts, n - rng.randint(0, 20)]):
            for v in range(lo + 1, hi):
                edges.add((rng.randint(lo, v - 1), v))
            for _ in range((hi - lo) // 2):
                edges.add(tuple(sorted(rng.sample(range(lo, hi), 2))))
        graphs.append(gs.SimpleGraph(n, sorted({tuple(sorted((label[u], label[v]))) for u, v in edges})))
    for size in (300, 1000):  # one ladder, then one beside a second ladder and an isolated vertex
        rungs = [(i, size + i) for i in range(1, size + 1)]
        ladder = [(i, i + 1) for i in range(1, 2 * size) if i != size] + rungs
        graphs.append(gs.SimpleGraph(2 * size, ladder))
        graphs.append(gs.SimpleGraph(4 * size + 1, ladder + [(u + 2 * size, v + 2 * size) for u, v in ladder]))
    large = 0
    for graph in graphs:
        nxg = nx.Graph(graph.edges)
        nxg.add_nodes_from(range(1, graph.n + 1))
        want = sorted(sorted(c) for c in nx.connected_components(nxg))
        assert graph.components() == want and graph.num_components == len(want)
        large += graph.m >= gs.gaincore._ARRAY_WALK_EDGES and len(want) > 1
    assert large >= 14


def test_mixed_mode_rejects_minus_one():
    with pytest.raises(ValidationError, match="mixed graphs allow only gains 1, i, -i"):
        mixed(2, [(1, 2, 2)])
    with pytest.raises(ValidationError):
        gs.GainGraph(gs.SimpleGraph(2, [(1, 2)]), gs.GainGroup(3), (gs.GainGroup(3).one,), mixed_mode=True)


def _sorted_reference(k, arcs):
    """(tails, heads, exps) of arcs by sorted() over canonical (u, v, t) triples."""
    rows = sorted((u, v, t) if u < v else (v, u, -t % k) for u, v, t in arcs)
    return tuple(zip(*rows)) or ((), (), ())


def _wide_arcs():
    rng = random.Random(63)
    k = 2**62
    pairs = rng.sample(list(itertools.combinations(range(1, 51), 2)), 80)
    arcs = [(u, v, rng.randrange(k)) if rng.random() < 0.5 else (v, u, rng.randrange(k)) for u, v in pairs]
    return 50, k, arcs + [(50, 1, k - 1), (2, 1, 1)]


@pytest.mark.parametrize(
    "n, k, arcs",
    [
        (2**63 + 5, 4, [(2**63 + 5, 1, 1), (2, 2**63 + 4, 3)]),
        _wide_arcs(),
        (3, 2**59, [(3, 1, 2**59 - 1), (1, 2, 5), (2, 3, 0)]),
        (0, 2**63, []),
    ],
    ids=["n-2^63+5", "k-2^62", "bound-2^63", "n-0-k-2^63"],
)
def test_keys_past_int64_stay_exact(n, k, arcs):
    # The keys lie below (n + 1)^2 * k, which here does not fit int64; at
    # n 0 the group order itself does not.
    assert (n + 1) ** 2 * k >= 2**63
    group = gs.GainGroup(k)
    tails, heads, exps = _sorted_reference(k, arcs)
    g = gs.build_gain_graph(n, group, arcs)
    assert (g.graph.tails, g.graph.heads, g.exps) == (tails, heads, exps)
    assert {type(x) for x in g.graph.tails + g.graph.heads + g.exps} <= {int}
    assert gs.parse_gg(gs.format_gg(g)) == (g, ())
    graph = gs.SimpleGraph(n, [(u, v) for u, v, _ in arcs])
    assert (graph.tails, graph.heads) == (tails, heads)
    if not arcs:
        return
    u, v, t = arcs[-1]
    repeat = f"both orientations (or a repeat) given for pair {(min(u, v), max(u, v))}"
    for extra in ((u, v, t), (v, u, -t % k)):
        with pytest.raises(ValidationError, match=re.escape(repeat)):
            gs.build_gain_graph(n, group, arcs + [extra])
        with pytest.raises(ValidationError, match=re.escape(repeat)):
            gs.parse_gg(gs.format_gg(g) + f"e {extra[0]} {extra[1]} {extra[2]}\n")
        with pytest.raises(ValidationError, match=re.escape(f"duplicate edge {(min(u, v), max(u, v))}")):
            gs.SimpleGraph(n, [(a, b) for a, b, _ in arcs] + [extra[:2]])


def test_build_gain_graph_orientation_handling():
    g = mixed(3, [(2, 1, 1), (2, 3, 1), (3, 1, 0)])
    # gain stored on the canonical orientation 1 -> 2 is the conjugate of 2 -> 1
    assert g.gain(1, 2) == gs.GainExponent(G4, 3)
    assert g.gain(2, 1) == gs.GainExponent(G4, 1)
    assert g.gain(2, 3).exp == 1
    with pytest.raises(ValidationError):
        mixed(3, [(1, 2, 1), (2, 1, 1)])
    with pytest.raises(ValidationError):
        gs.build_gain_graph(2, G4, [(1, 2, 4)])
    with pytest.raises(ValidationError):
        gs.build_gain_graph(2, G4, [(1, 2, gs.GainExponent(gs.GainGroup(3), 1))])


def test_gain_lookup_errors():
    g = arc_triangle()
    with pytest.raises(ValidationError):
        g.gain(1, 1)
    with pytest.raises(ValidationError):
        g.gain(1, 4)


def test_hermitian_matrix_bit_symmetry():
    rng = random.Random(7)
    for _ in range(25):
        graph = random_connected_graph(rng, n_hi=7)
        g = random_gains(rng, graph, k=rng.choice([2, 3, 4, 5, 8]))
        h = gs.hermitian_matrix(g)
        assert np.array_equal(h, h.conj().T)
        assert np.all(np.diag(h) == 0)
        for (u, v), gain in zip(graph.edges, g.gains):
            assert h[u - 1, v - 1] == gain.value


def test_hermitian_matrix_arc_triangle():
    h = gs.hermitian_matrix(arc_triangle())
    want = np.array([[0, 1j, 1], [-1j, 0, 1], [1, 1, 0]], dtype=complex)
    assert np.array_equal(h, want)


def test_underlying_and_negate():
    g = arc_triangle()
    u = gs.underlying(g)
    assert all(x.is_one() for x in u.gains)
    assert u.mixed_mode
    n = gs.negate(g)
    assert not n.mixed_mode
    assert [x.exp for x in n.gains] == [(x.exp + 2) % 4 for x in g.gains]
    nn = gs.negate(n)
    assert nn.gains == g.gains
    with pytest.raises(ValidationError):
        gs.negate(random_gains(random.Random(1), complete_graph(3), k=3))


def test_switching_function_basics():
    theta = gs.SwitchingFunction.identity(G4, 3)
    assert theta.is_identity()
    vals = (gs.GainExponent(G4, 1), gs.GainExponent(G4, 2), gs.GainExponent(G4, 0))
    phi = gs.SwitchingFunction(G4, vals)
    assert phi == gs.SwitchingFunction(G4, (1, 2, 0)) and phi.exps == (1, 2, 0)
    assert all(type(t) is int for t in phi.exps)
    assert phi(1) == gs.GainExponent(G4, 1)
    assert phi.conj()(2).exp == 2 and phi.conj().exps == (3, 2, 0)
    assert phi.mul(phi.conj()).is_identity()
    assert not phi.is_identity() and phi.n == 3
    with pytest.raises(ValidationError):
        phi.mul(gs.SwitchingFunction.identity(G4, 4))
    with pytest.raises(ValidationError):
        phi.mul(gs.SwitchingFunction.identity(gs.GainGroup(8), 3))
    for bad in ((1, 4, 0), (1, True, 0), (1, 2.0, 0), (gs.GainExponent(gs.GainGroup(8), 1), 0, 0)):
        with pytest.raises(ValidationError):
            gs.SwitchingFunction(G4, bad)


def test_parse_gg_mixed_aliases():
    g, faces = gs.parse_gg("gg 4 mixed\nn 3\ne 1 2 i\ne 2 3 1\ne 3 1 -i\n")
    assert g.mixed_mode
    assert g.gain(1, 2).exp == 1
    assert g.gain(2, 3).exp == 0
    assert g.gain(3, 1).exp == 3
    assert faces == ()


def test_parse_gg_numeric_and_faces():
    text = "# comment\ngg 6\nn 4\ne 1 2 5\ne 2 3 0  # inline\nf 1 2 3\n"
    g, faces = gs.parse_gg(text)
    assert g.group.order == 6
    assert not g.mixed_mode
    assert g.gain(1, 2).exp == 5
    assert faces == ((1, 2, 3),)


def test_parse_gg_error_lines():
    with pytest.raises(ValidationError, match="line 1"):
        gs.parse_gg("eh 4\n")
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 4\nn 2\ne 1 2\n")
    with pytest.raises(ValidationError, match="line 2"):
        gs.parse_gg("gg 4\nf 1 2 3\n")
    with pytest.raises(ValidationError):
        gs.parse_gg("gg 4\nn 2\ne 1 2 7\n")
    with pytest.raises(ValidationError):
        gs.parse_gg("n 2\ne 1 2 0\n")
    with pytest.raises(ValidationError, match="line 2"):
        gs.parse_gg("gg 4\nn 3 9\n")
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 4\nn 2\ne 1 2 i extra\n")
    with pytest.raises(ValidationError, match="line 2"):
        gs.parse_gg("gg 4\nn 1_0\n")  # int() reads 10
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 4\nn 2\ne \u0661 2 1\n")  # Arabic-Indic digit one
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 6\nn 2\ne 1 2 \u0661\n")
    with pytest.raises(ValidationError, match="line 1"):
        gs.parse_gg("gg +3\nn 2\n")
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 4\nn 3\nf 1 2 +3\n")
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 4\nn 3\nf\n")


def test_parse_gg_reads_non_canonical_text():
    canonical = "gg 4 mixed\nn 4\ne 1 2 i\ne 1 4 i\ne 2 3 1\ne 3 4 -i\nf 1 2 3 4\n"
    g, faces = gs.parse_gg(canonical)
    assert gs.format_gg(g, faces) == canonical
    messy = (
        "# a comment line\r\n"
        "gg\t4   mixed  # header\r\n"
        "\r\n"
        "n 4\r\n"
        "e 2\t1 -i\r\n"  # the reverse orientation, conjugated
        "   \r\n"
        "f 1 2 3 4\r\n"
        "e 3 2 1 # gain 1\r\n"
        "\te 4 3 i\r\n"
        "e 004 1 3\r\n"  # leading zeros; exponent 3 is -i on 4 -> 1
    )
    assert gs.parse_gg(messy) == (g, faces)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("gg 4 mixed\nn 4\n# c\ne 1 2 i\ne 2 3 1\n\ne 3 4 x\ne 1 4 -i\nf 1 2 3\n",
                     "line 7: expected an integer, got 'x'", id="bad-token-line-7-of-9"),
        pytest.param("gg 4 mixed\nn 4\n# c\ne 1 2 i\ne 2 3 1\n\ne 3 4 x\ne 1 4 -i\nq 1\n",
                     "line 7: expected an integer, got 'x'", id="bad-token-before-bad-directive"),
        pytest.param("gg 4\nn 3\ne 1 2 0\ne 2 3\n",
                     "line 4: malformed 'e' line (not enough values to unpack (expected 4, got 3))", id="short-e-line"),
        pytest.param("gg 6\nn 3\ne 1 2 0\ne 1 +3 0\ne 2 3 7\n",
                     "line 4: expected an integer, got '+3'", id="signed-vertex"),
        pytest.param("gg 6\nn 3\ne 1 2 0\ne 2 3 7\n",
                     "exponent 7 out of range for group of order 6", id="exponent-out-of-range"),
        pytest.param("gg 4\r\nn 3\r\ne 1 2 0\r\ne 3 3 1\r\n", "self-loop at vertex 3", id="crlf-self-loop"),
    ],
)
def test_parse_gg_names_the_first_bad_line(text, message):
    with pytest.raises(ValidationError) as raised:
        gs.parse_gg(text)
    assert str(raised.value) == message


def test_parse_gg_names_a_field_past_the_int_digit_limit():
    """A field longer than Python's int conversion limit is a bad line,
    named like any other, also after a run read in bulk."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python has no int digit limit")
    long = "1" * (limit + 1)
    run = gs.format_gg(gs.build_gain_graph(80, gs.GainGroup(6), [(v, v + 1, v % 6) for v in range(1, 80)]))
    for text, lineno in (
        (f"gg 6\nn 3\ne 1 2 {long}\n", 3),
        (f"gg 4\nn 3\ne {long} 2 i\n", 3),
        (run + f"e 1 3 {long}\n", 82),
    ):
        with pytest.raises(ValidationError, match=f"^line {lineno}: malformed 'e' line"):
            gs.parse_gg(text)


def test_round_trip_random(rng):
    for _ in range(60):
        graph = random_connected_graph(rng, n_hi=7)
        k = rng.choice([1, 2, 3, 4, 4, 5, 8])
        mixed_mode = k == 4 and rng.random() < 0.5
        g = random_gains(rng, graph, k=k, mixed_mode=mixed_mode)
        back, faces = gs.parse_gg(gs.format_gg(g))
        assert back == g
        assert faces == ()


def test_round_trip_preserves_faces(tmp_path):
    g = all_ones(gs.SimpleGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    path = tmp_path / "c4.gg"
    gs.save_gg(g, path, faces=[(1, 2, 3, 4)])
    back, faces = gs.load_gg(path)
    assert back == g
    assert faces == ((1, 2, 3, 4),)


def test_round_trip_k4_exponent_one_not_alias_one():
    # exponent 1 means gain i for k = 4; the writer must not emit a bare "1"
    g = mixed(2, [(1, 2, 1)])
    back, _ = gs.parse_gg(gs.format_gg(g))
    assert back.gain(1, 2).exp == 1


def test_gain_graph_equality_and_hash():
    a = arc_triangle()
    b = mixed(3, [(1, 2, 1), (2, 3, 0), (3, 1, 0)])
    assert a == b and hash(a) == hash(b)
    c = mixed(3, [(1, 2, 3), (2, 3, 0), (3, 1, 0)])
    assert a != c
    assert a != gs.GainGraph(a.graph, G4, a.gains, mixed_mode=False)


def test_every_route_builds_the_same_graph(rng):
    one_vertex = gs.GainGraph(gs.SimpleGraph(1, []), G4, (), mixed_mode=True)
    for _ in range(10):
        graph = random_connected_graph(rng, n_lo=3, n_hi=7)
        g = random_gains(rng, graph, mixed_mode=True)
        arcs = [(u, v, t) for (u, v), t in zip(graph.edges, g.exps)]
        routes = [
            gs.GainGraph(graph, G4, [G4.element(t) for t in g.exps], mixed_mode=True),
            gs.build_gain_graph(graph.n, G4, arcs, mixed_mode=True),
            gs.build_gain_graph(graph.n, G4, [(v, u, G4.element(-t)) for u, v, t in arcs], mixed_mode=True),
            gs.parse_gg(gs.format_gg(g))[0],
            gs.apply_switching(g, gs.SwitchingFunction.identity(G4, graph.n)),
            gs.act(gs.VertexPermutation.identity(graph.n), g),
            gs.cartesian_product(one_vertex, g),
            gs.cartesian_product(g, one_vertex),
        ]
        for h in routes:
            assert h == g and hash(h) == hash(g)
            assert h.exps == g.exps and h.gains == g.gains
        _spectrum_cached.cache_clear()
        gs.spectrum(routes[0])
        for h in routes[1:]:
            hits = _spectrum_cached.cache_info().hits
            gs.spectrum(h)
            assert _spectrum_cached.cache_info().hits == hits + 1


@pytest.mark.parametrize(
    "case",
    ["exponent -1", "exponent k", "bool exponent", "gain count", "group mismatch", "-1 on a mixed edge",
     "mixed with k != 4"],
)
def test_integer_route_rejects_what_the_object_route_rejects(case):
    g3, g6 = gs.GainGroup(3), gs.GainGroup(6)
    edge = gs.SimpleGraph(2, [(1, 2)])
    # Per case: the object route, build_gain_graph, parse_gg and the integer constructor.
    routes = {
        "exponent -1": (
            lambda: gs.GainGraph(edge, g6, [gs.GainExponent(g6, -1)]),
            lambda: gs.build_gain_graph(2, g6, [(2, 1, -1)]),
            "gg 6\nn 2\ne 2 1 -1\n",
            lambda: gs.GainGraph(edge, g6, (-1,)),
        ),
        "exponent k": (
            lambda: gs.GainGraph(edge, g6, [gs.GainExponent(g6, 6)]),
            lambda: gs.build_gain_graph(2, g6, [(1, 2, 6)]),
            "gg 6\nn 2\ne 1 2 6\n",
            lambda: gs.GainGraph(edge, g6, (6,)),
        ),
        "bool exponent": (
            lambda: gs.GainGraph(edge, g6, [True]),
            lambda: gs.build_gain_graph(2, g6, [(1, 2, True)]),
            "gg 6\nn 2\ne 1 2 True\n",
            lambda: gs.GainGraph(edge, g6, (True,)),
        ),
        "gain count": (
            lambda: gs.GainGraph(edge, g6, []),
            lambda: gs.build_gain_graph(2, g6, [(1, 2)]),
            "gg 6\nn 2\ne 1 2\n",
            lambda: gs.GainGraph(edge, g6, (0, 0)),
        ),
        "group mismatch": (
            lambda: gs.GainGraph(edge, g6, [g3.one]),
            lambda: gs.build_gain_graph(2, g6, [(1, 2, g3.one)]),
            "gg 6\nn 2\ne 1 2 i\n",  # a k = 4 alias in a k = 6 file
            lambda: gs.GainGraph(edge, g3, (5,)),  # a k = 6 exponent under k = 3
        ),
        "-1 on a mixed edge": (
            lambda: gs.GainGraph(edge, G4, [G4.element(2)], mixed_mode=True),
            lambda: gs.build_gain_graph(2, G4, [(1, 2, 2)], mixed_mode=True),
            "gg 4 mixed\nn 2\ne 1 2 -1\n",
            lambda: gs.GainGraph(edge, G4, (2,), mixed_mode=True),
        ),
        "mixed with k != 4": (
            lambda: gs.GainGraph(edge, g3, [g3.one], mixed_mode=True),
            lambda: gs.build_gain_graph(2, g3, [(1, 2, 0)], mixed_mode=True),
            "gg 3 mixed\nn 2\ne 1 2 0\n",
            lambda: gs.GainGraph(edge, g3, (0,), mixed_mode=True),
        ),
    }
    by_object, by_build, text, by_exps = routes[case]
    for build in (by_object, by_build, lambda: gs.parse_gg(text), by_exps):
        with pytest.raises(ValidationError):
            build()


def test_integer_paths_build_no_gain_exponents(monkeypatch):
    rng = random.Random(61)
    n, k = 1000, 6
    group = gs.GainGroup(k)
    edges = {(v - rng.randint(1, min(v - 1, 30)), v) for v in range(2, n + 1)}
    while len(edges) < 2 * n:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((u, v))
    arcs_a = [(u, v, rng.randrange(k)) for u, v in sorted(edges)]
    arcs_b = [(u, v, (t + 1) % k if i == len(arcs_a) - 1 else t) for i, (u, v, t) in enumerate(arcs_a)]
    built = []
    original = gs.GainExponent.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(gs.GainExponent, "__post_init__", counting)
    a = gs.build_gain_graph(n, group, arcs_a)
    b = gs.build_gain_graph(n, group, [(v, u, -t % k) for u, v, t in arcs_b])
    a2, _ = gs.parse_gg(gs.format_gg(a))
    assert a2 == a
    assert not gs.is_balanced(a2)
    assert gs.switching_equivalent(a2, b) is None
    normal, theta = gs.normalize_to_forest(a2)
    assert gs.switching_equivalent(a2, normal) == theta
    assert gs.gain_character(a2) == gs.MIXED_PROFILE
    assert gs.equivalent_to_negation(a2) == (gs.negation_witness(a2) is not None)
    square = gs.build_gain_graph(4, group, [(1, 2, k // 2), (2, 3, 0), (3, 4, 0), (4, 1, 0)])
    assert gs.gain_character(square) == gs.NEGATIVE and gs.equivalent_to_negation(square)
    assert gs.apply_switching(square, gs.negation_witness(square)) == gs.negate(square)
    assert gs.gain_character(arc_triangle()) == gs.IMAGINARY
    assert built == []
    _, gain_a, gain_b = gs.first_profile_difference(a2, b)
    assert gain_a != gain_b
    assert len(built) == 2


def test_decision_path_builds_no_edge_views():
    k = 4
    for n in (60, 300):  # m 120, below the array crossover, and m 600, above it
        rng = random.Random(67)
        edges = {(v - rng.randint(1, min(v - 1, 20)), v) for v in range(2, n + 1)}
        while len(edges) < 2 * n:
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        arcs = [(u, v, rng.choice(gs.MIXED_EXPONENTS)) for u, v in edges]
        a = gs.build_gain_graph(n, G4, arcs, mixed_mode=True)
        b = gs.build_gain_graph(n, G4, [(v, u, t) for u, v, t in arcs])  # conjugated: unbalanced difference
        a2, _ = gs.parse_gg(gs.format_gg(a))
        assert a2 == a and hash(a2) == hash(a)
        assert gs.switching_equivalent(a2, b) is None
        assert gs.first_profile_difference(a2, b) is not None
        gs.is_balanced(a2), gs.equivalent_to_negation(a2), gs.class_count_bounds(a2.graph), gs.is_cactus(a2.graph)
        above = a.graph.m >= gs.gaincore._ARRAY_WALK_EDGES
        assert above == (n == 300)
        assert (gs.spanning_forest(a2.graph)._arrays is not None) == above
        for graph in (a.graph, a2.graph, b.graph):
            assert graph._edges is None and graph._edge_index is None
            # above the crossover the walk reads csr as arrays, and no csr tuples are built
            assert graph._csr is None or not above


def test_block_and_symmetry_searches_read_csr_only():
    a, b = bowtie_minus(), bowtie_i()
    gs.class_size_by_blocks(a), gs.automorphisms(a.graph), gs.switching_isomorphic(a, b)
    g = bowtie_i()
    gs.automorphisms(g.graph), gs.automorphisms(g)
    assert g.graph._edges is None and g.graph._edge_index is None


def test_incidence_is_parallel_to_adjacency(rng):
    for _ in range(20):
        graph = random_connected_graph(rng, n_hi=12)
        offsets, neighbours, edge_ids = graph.csr
        for v in range(1, graph.n + 1):
            row = slice(offsets[v], offsets[v + 1])
            assert len(edge_ids[row]) == len(neighbours[row]) == len(graph.neighbors(v))
            for w, e in zip(neighbours[row], edge_ids[row]):
                assert graph.edges[e] == (min(v, w), max(v, w))


def test_adjacency_is_sorted(rng):
    for _ in range(40):
        n = rng.randint(1, 30)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
        graph = gs.SimpleGraph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in chosen])
        for v in range(1, n + 1):
            assert list(graph.neighbors(v)) == sorted(graph.neighbors(v))
            assert set(graph.neighbors(v)) == {w for e in chosen if v in e for w in e if w != v}


def test_package_exports_the_layer_modules_and_the_errors():
    layers = (gs.census, gs.gaincore, gs.spectral, gs.switching, gs.symmetry)
    errors = {"GainGraphError", "InstanceTooLargeError", "NumericError", "ValidationError"}
    assert sorted(gs.__all__) == sorted(set().union(*(m.__all__ for m in layers)) | errors)
    for module in layers:
        assert all(getattr(gs, name) is getattr(module, name) for name in module.__all__)
