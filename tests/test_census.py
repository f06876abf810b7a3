"""Class counting and sizing: alpha vectors, brute census, blocks, faces.

Claims covered here:
  * the alpha recurrence agrees with its parity-split closed form and its
    components count 3^n words exactly; word lengths that are bools or not
    integers are refused, also after the same length was cached as an int;
  * the chunked numpy census agrees with a pure-Python complex-arithmetic
    oracle and with the closed forms on cycles;
  * class-count bounds and their tightness match the vertex-tuple cycles
    mapped to edge ids, and bounds, census and block sizes list no cycle
    basis;
  * on forests walked by levels the chord-path count of every forest edge
    and whether every chord path has an edge of count 1 match those cycles,
    and the bounds, tightness and cactus verdict match the chord walk's, on
    240 seeded graphs by both routes and on level-walked graphs with
    m >= 500; a windmill (3r = m) is still a cactus, and a graph with
    3r > m is refused before any chord path is looked at;
  * class sizes multiply over biconnected blocks, each sized from the
    default forest's chords inside it (checked on hand-built and random
    cacti against the exhaustive census, and on a 3000-triangle cactus
    against the product of its alpha factors), with no graph built per
    block;
  * face structures of 2-connected plane graphs validate correctly and are
    refused for another graph's gains, their gamma matrices match
    hand-enumerated sets, and the face-sum formula reproduces exhaustive
    class sizes and counts across a plane catalog;
  * adjacent faces obey the symmetric-difference gain law (an identity of
    any gains once the faces are clockwise, checked here on its own);
  * the chunked scan bins every orientation exactly once, in chunks no
    shorter than its 4^r bins, and lists the profiles in sorted order;
    its census is one read-only weight array over Z_4^r, which
    ``num_classes`` and ``size_of`` read without building the class list,
    ``size_of`` refusing profiles of the wrong length, outside 0..3, with
    bool entries or not iterable at all, and ranks above the tally's cap
    are refused before any chunk is binned;
  * the chunked scan, the whole-graph cycle-space convolution and a
    character-sum formula give the same census, block sizes by convolution
    match the scan on random mixed graphs (with non-cycle blocks through
    one cut vertex and isolated vertices), and block sizes taking one run
    of edges in series at a time match one step per edge and the scan on
    subdivided graphs; the face-cell convolution matches gamma-matrix
    enumeration for every face-gain vector (a seeded sample on the
    5-face prism), it is the face structure's read-only ``weights``, built
    by one convolution that both plane formulas read (a refusal keeps
    nothing), and the convolutions stay exact past 2^63;
  * the character-sum convolution gives the shape and values of a
    test-local np.roll reference, whose steps come from the alpha
    recurrence, for every d from 0 to 9, with int64 up to 38 edges and
    Python integers from 39; the whole-graph convolution oracle uses that
    reference in place of the library's convolution;
  * on Z_4 one run of n edges is the alpha vector read by exponent, for n
    from 0 to 45;
  * a block whose rank is past the convolution's cap is refused before its
    incidence on its chords is built.
"""

import collections
import itertools
import math
import random
import time

import numpy as np
import pytest

import gainswitch as gs
from gainswitch import census as census_mod
from conftest import (
    G4,
    PLANE_CATALOG,
    all_ones,
    complete_graph,
    cycle_graph,
    bowtie_minus,
    mixed,
    path_graph,
    random_cactus,
    random_connected_graph,
    random_gains,
    random_graph,
    tree_path_cycles,
)

I = 1j
QUARTER = (1 + 0j, 1j, -1 + 0j, -1j)  # value of exponent 0, 1, 2, 3


def exp_of(z):
    """Exponent of a unit complex number, up to float fuzz."""
    for exp, w in enumerate(QUARTER):
        if abs(z - w) < 1e-9:
            return exp
    raise AssertionError(f"not a fourth root of unity: {z}")


def oracle_census(graph):
    """Bucket all 3^m mixed orientations by chord-cycle gains, Python-only.

    Gains multiply as raw complex numbers along each fundamental cycle, so
    nothing of the vectorized census machinery is reused.
    """
    basis = gs.fundamental_cycles(graph, gs.spanning_forest(graph))
    counts = {}
    for combo in itertools.product((0, 1, 3), repeat=graph.m):
        profile = []
        for cyc in basis.cycles:
            closed = list(cyc) + [cyc[0]]
            z = 1 + 0j
            for a, b in zip(closed, closed[1:]):
                w = QUARTER[combo[graph.edge_id(a, b)]]
                z *= w if a < b else w.conjugate()
            profile.append(exp_of(z))
        key = tuple(profile)
        counts[key] = counts.get(key, 0) + 1
    return counts


def gamma_values(mat):
    """A gamma matrix as a hashable grid of complex entries."""
    return tuple(
        tuple(None if e is None else e.value for e in row) for row in mat.entries
    )


# -- alpha vectors -----------------------------------------------------------


def test_alpha_recurrence_matches_closed_form():
    for n in range(41):
        assert gs.alpha_vector(n) == gs.alpha_closed_form(n)
        assert sum(gs.alpha_vector(n).as_tuple()) == 3**n


def test_alpha_known_vectors():
    assert gs.alpha_vector(0).as_tuple() == (1, 0, 0, 0)
    assert gs.alpha_vector(1).as_tuple() == (1, 0, 1, 1)
    assert gs.alpha_vector(2).as_tuple() == (3, 2, 2, 2)
    assert gs.alpha_vector(3).as_tuple() == (7, 6, 7, 7)
    assert gs.alpha_vector(4).as_tuple() == (21, 20, 20, 20)
    assert gs.alpha_vector(5).as_tuple() == (61, 60, 61, 61)


def test_alpha_component_indexing():
    a = gs.alpha_vector(3)
    assert a.component(G4.one) == 7
    assert a.component(gs.GainExponent(G4, 2)) == 6
    assert a.component(gs.GainExponent(G4, 1)) == 7
    assert a.component(gs.GainExponent(G4, 3)) == 7
    with pytest.raises(gs.ValidationError):
        a.component(gs.GainExponent(gs.GainGroup(2), 1))


def test_alpha_validation():
    with pytest.raises(gs.ValidationError):
        gs.alpha_vector(-1)
    with pytest.raises(gs.ValidationError):
        gs.alpha_closed_form(-1)
    gs.alpha_vector(1)  # cached as ints: True and 5.0 must not hit these entries
    gs.alpha_closed_form(5)
    for length in (True, False, 5.0, 1.5, "a", "3", None, [3]):
        for alpha in (gs.alpha_vector, gs.alpha_closed_form):
            with pytest.raises(gs.ValidationError, match="not an integer"):
                alpha(length)
        with pytest.raises(gs.ValidationError, match="not an integer"):
            gs.cycle_class_size(length, G4.one)
    assert gs.alpha_closed_form(np.int64(5)) == gs.alpha_vector(5) == gs.alpha_closed_form(5)
    assert type(gs.alpha_closed_form(np.int64(5)).n) is int
    assert gs.cycle_class_size(np.int64(5), G4.one) == 61


# -- cycle class sizes -------------------------------------------------------


def test_cycle_class_size_known_values():
    assert gs.cycle_class_size(5, G4.one) == 61
    assert gs.cycle_class_size(5, gs.GainExponent(G4, 2)) == 60
    with pytest.raises(gs.ValidationError):
        gs.cycle_class_size(2, G4.one)


def test_cycle_class_sizes_match_brute_force():
    for n in range(3, 7):
        census = gs.brute_force_census(cycle_graph(n))
        sizes = sorted(size for _, size in census.classes)
        want = sorted(gs.cycle_class_size(n, gs.GainExponent(G4, t)) for t in range(4))
        assert sizes == want
        # conjugating the traversal direction swaps i and -i, whose alpha
        # components coincide, so profile keys match sizes either way
        for (profile,), size in census.classes:
            assert size == gs.cycle_class_size(n, gs.GainExponent(G4, profile))


# -- bounds ------------------------------------------------------------------


def test_class_count_bounds_known_graphs():
    assert gs.class_count_bounds(path_graph(4)) == (1, 1, True)
    assert gs.class_count_bounds(cycle_graph(5)) == (3, 4, True)
    assert gs.class_count_bounds(complete_graph(4)) == (27, 64, False)
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert gs.class_count_bounds(diamond) == (9, 16, False)


def test_class_count_bounds_match_cycle_edge_oracle():
    """Bounds and tightness against the vertex-tuple cycles mapped to edge
    ids: tight iff every cycle has two edges no other cycle uses."""
    rng = random.Random(1515)
    tight_seen = forests = several_components = 0
    for t in range(1200):
        graph = random_graph(rng, n_hi=10, m_cap=16) if t % 3 else random_cactus(rng, m_cap=12)
        cycles = tree_path_cycles(graph, gs.spanning_forest(graph))
        ids = [[graph.edge_id(a, b) for a, b in zip(c, c[1:] + c[:1])] for c in cycles]
        use = [sum(e in cyc for cyc in ids) for e in range(graph.m)]
        tight = all(sum(use[e] == 1 for e in cyc) >= 2 for cyc in ids)
        r = graph.m - graph.n + graph.num_components
        assert gs.class_count_bounds(graph) == (3**r, 4**r, tight)
        tight_seen += tight and r > 0
        forests += r == 0
        several_components += graph.num_components > 1
    assert tight_seen >= 300 and forests >= 100 and several_components >= 300


def test_tight_upper_bound_is_attained():
    two_squares = gs.SimpleGraph(5, [(1, 2), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5)])
    lo, hi, tight = gs.class_count_bounds(two_squares)
    assert (lo, hi, tight) == (9, 16, True)
    assert gs.brute_force_census(two_squares).num_classes == hi
    lo, hi, tight = gs.class_count_bounds(cycle_graph(5))
    assert tight and gs.brute_force_census(cycle_graph(5)).num_classes == hi


def cycle_edge_use(graph):
    """The default forest's fundamental cycles as edge-id lists, by chord
    edge id, and how many of them use each edge id."""
    cycles = tree_path_cycles(graph, gs.spanning_forest(graph))
    ids = [[graph.edge_id(a, b) for a, b in zip(c, c[1:] + c[:1])] for c in cycles]
    return ids, collections.Counter(itertools.chain.from_iterable(ids))


def cycle_edge_counts(graph):
    """``(bounds, cactus)`` from ``cycle_edge_use``: tight iff every cycle has
    two edges no other cycle uses, a cactus iff no edge lies on two cycles."""
    ids, use = cycle_edge_use(graph)
    r = len(ids)
    return (3**r, 4**r, all(sum(use[e] == 1 for e in cyc) >= 2 for cyc in ids)), max(use.values(), default=0) <= 1


def assert_level_counts_match_cycle_edges(graph):
    """The level walk's per-edge path counts and per-chord private-edge
    verdicts (``switching._chord_use``) against ``cycle_edge_use``."""
    f = gs.spanning_forest(graph)
    use, private = gs.switching._chord_use(graph, f)
    ids, want = cycle_edge_use(graph)
    assert use.tolist() == [0] + [want[e] if e >= 0 else 0 for e in f.parent_edge[1:]]
    assert private.tolist() == [any(want[e] == 1 for e in cyc if not f.is_chord[e]) for cyc in ids]


def counted_by(route, n, edges, cactus_first=False):
    """``class_count_bounds`` and ``is_cactus`` of a graph built with the array
    passes on every graph ("array") or on none ("python", the chord walk),
    and whether its forest was walked by levels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gs.gaincore, "_ARRAY_WALK_EDGES", 0 if route == "array" else math.inf)
        graph = gs.SimpleGraph(n, edges)
        asks = (gs.is_cactus, gs.class_count_bounds) if cactus_first else (gs.class_count_bounds, gs.is_cactus)
        found = {ask: ask(graph) for ask in asks}
        return (found[gs.class_count_bounds], found[gs.is_cactus]), gs.spanning_forest(graph)._arrays is not None, graph


def test_chord_counts_by_levels_match_the_chord_walk_and_cycle_edges():
    """Both routes give the chord walk's bounds, tightness and cactus verdict,
    and the cycle-edge oracle's, whichever of the two is asked first."""
    rng = random.Random(2929)
    walked = tight = cactus = 0
    for t in range(240):
        if t % 4 == 0:
            graph = random_cactus(rng, m_cap=rng.choice((12, 40)))
        elif t % 4 == 1:
            graph = random_graph(rng, n_hi=12, m_cap=20)
        else:
            graph = random_connected_graph(rng, n_hi=rng.choice((8, 60)), m_cap=rng.choice((12, 70, 200)))
        (array, by_levels, _), (python, by_queue, built) = (
            counted_by(route, graph.n, graph.edges, cactus_first=t % 2) for route in ("array", "python")
        )
        assert array == python == cycle_edge_counts(built), t
        assert not by_queue
        if by_levels:
            assert_level_counts_match_cycle_edges(counted_by("array", graph.n, graph.edges)[2])
        walked += by_levels
        tight += array[0][2] and array[0][0] > 1
        cactus += array[1] and array[0][0] > 1
    assert walked >= 150 and tight >= 40 and cactus >= 40, (walked, tight, cactus)


def large_structures():
    """(name, n, edges, tight, cactus, walked by levels) of graphs with m >= 500."""
    def theta(paths, length):  # hubs 1 and 2 joined by paths of ``length`` edges
        edges, n = [], 2
        for _ in range(paths):
            inner = list(range(n + 1, n + length))
            n += length - 1
            chain = [1, *inner, 2]
            edges += [(min(u, v), max(u, v)) for u, v in zip(chain, chain[1:])]
        return n, edges

    def grid(rows, cols):
        vid = lambda i, j: i * cols + j + 1  # noqa: E731
        right = [(vid(i, j), vid(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
        return rows * cols, right + [(vid(i, j), vid(i + 1, j)) for i in range(rows - 1) for j in range(cols)]

    def ladders(count, length):  # ladders hung from vertex 1 by the first ends of both rails
        edges, n = [], 1
        for _ in range(count):
            left, right = range(n + 1, n + length + 1), range(n + length + 1, n + 2 * length + 1)
            edges += [(1, left[0]), (1, right[0])] + list(zip(left, left[1:])) + list(zip(right, right[1:]))
            edges += list(zip(left, right))
            n += 2 * length
        return n, edges

    def bouquet(count, length):  # cycles of ``length`` through vertex 1
        edges, n = [], 1
        for _ in range(count):
            ring = [1, *range(n + 1, n + length)]
            n += length - 1
            edges += [(min(u, v), max(u, v)) for u, v in zip(ring, ring[1:] + ring[:1])]
        return n, edges

    yield "bouquet of 20 cycles of 30", *bouquet(20, 30), True, True, True
    yield "theta of 40 paths of 15", *theta(40, 15), True, False, True
    yield "grid 25 x 25", *grid(25, 25), False, False, True
    yield "40 ladders of 6", *ladders(40, 6), False, False, True
    n = 700
    yield "cycle 700 with chords", n, [(i, i + 1) for i in range(1, n)] + [(1, n), (100, 300), (200, 400)], True, False, False


@pytest.mark.parametrize("name, n, edges, tight, cactus, by_levels", list(large_structures()), ids=lambda x: x if isinstance(x, str) else "")
def test_chord_counts_on_large_graphs(name, n, edges, tight, cactus, by_levels):
    """Graphs past ``_ARRAY_WALK_EDGES`` as shipped: the level walk's counts, or
    the chord walk after a narrow walk is handed to the queue loop, give the
    cycle-edge oracle's bounds, tightness and cactus verdict."""
    graph = gs.SimpleGraph(n, edges)
    assert graph.m >= max(500, gs.gaincore._ARRAY_WALK_EDGES)
    counts = gs.class_count_bounds(graph), gs.is_cactus(graph)
    assert (gs.spanning_forest(graph)._arrays is not None) == by_levels
    assert counts == cycle_edge_counts(graph) == counted_by("python", n, edges)[0]
    assert (counts[0][2], counts[1]) == (tight, cactus)
    if by_levels:
        assert_level_counts_match_cycle_edges(graph)


@pytest.mark.parametrize("route", ("array", "python"))
@pytest.mark.parametrize("blades", (1, 3, 200))
def test_windmill_is_a_cactus_at_the_edge_bound(route, blades):
    """A windmill of triangles through vertex 1 has 3r = m, the most edges a
    cactus with r cycles can have: the edge-count refusal lets it through,
    and both routes find it a tight cactus."""
    n = 2 * blades + 1
    edges = [e for b in range(2, n, 2) for e in ((1, b), (1, b + 1), (b, b + 1))]
    (bounds, cactus), by_levels, graph = counted_by(route, n, edges)
    assert 3 * (graph.m - graph.n + 1) == graph.m
    assert cactus and bounds[2] and by_levels == (route == "array")
    assert gs.gain_character(all_ones(graph)) == "balanced"


@pytest.mark.parametrize("route", ("array", "python"))
def test_dense_graph_is_refused_before_any_chord_path(route):
    """With 3r > m no chord path is looked at: ``is_cactus`` and
    ``gain_character`` answer without the level counts or the chord walk."""
    def fail(*args):
        raise AssertionError("a chord path was looked at")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gs.gaincore, "_ARRAY_WALK_EDGES", 0 if route == "array" else math.inf)
        graph = complete_graph(12)
        g = gs.GainGraph(graph, gs.GainGroup(4), [1] + [0] * (graph.m - 1))
        assert (gs.spanning_forest(graph)._arrays is not None) == (route == "array")
        mp.setattr(gs.switching, "_chord_use", fail)
        mp.setattr(gs.switching, "_chord_walk", fail)
        assert not gs.is_cactus(graph)
        assert gs.gain_character(g) == "mixed-profile"


# -- brute-force census ------------------------------------------------------


def test_census_triangle():
    census = gs.brute_force_census(gs.SimpleGraph(3, [(1, 2), (1, 3), (2, 3)]))
    assert census.total == 27
    assert census.classes == (((0,), 7), ((1,), 7), ((2,), 6), ((3,), 7))
    assert census.num_classes == 4
    assert census.size_of((2,)) == 6


def test_census_acyclic_single_class():
    census = gs.brute_force_census(path_graph(3))
    assert census.total == 9
    assert census.classes == (((), 9),)
    assert census.chords == ()
    assert census.size_of(()) == 9


def test_census_unknown_profile_and_cap():
    census = gs.brute_force_census(cycle_graph(4))
    with pytest.raises(gs.ValidationError):
        census.size_of((7,))
    with pytest.raises(gs.InstanceTooLargeError):
        gs.brute_force_census(cycle_graph(5), max_edges=4)


def test_census_matches_pure_python_oracle():
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    for graph in [
        gs.SimpleGraph(3, [(1, 2), (1, 3), (2, 3)]),
        cycle_graph(4),
        diamond,
        bowtie_minus().graph,
        complete_graph(4),
    ]:
        census = gs.brute_force_census(graph)
        assert dict(census.classes) == oracle_census(graph)
        assert sum(size for _, size in census.classes) == 3**graph.m


def test_census_profile_lookup_round_trip(rng):
    graph = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    census = gs.brute_force_census(graph)
    for _ in range(10):
        g = random_gains(rng, graph, mixed_mode=True)
        assert census.size_of(gs.mixed_basis_profile(g)) >= 1
    assert gs.mixed_basis_profile(all_ones(graph)) == (0, 0)


# -- blocks ------------------------------------------------------------------


def blocks_of(graph):
    """Each block's edges as sorted vertex pairs, blocks sorted."""
    return sorted(sorted(graph.edges[e] for e in ids) for ids in census_mod._block_edge_ids(graph))


def test_block_decompose_bowtie():
    assert blocks_of(bowtie_minus().graph) == [[(1, 2), (1, 3), (2, 3)], [(2, 4), (2, 5), (4, 5)]]


def test_block_decompose_shapes():
    assert blocks_of(path_graph(4)) == [[(1, 2)], [(2, 3)], [(3, 4)]]
    assert blocks_of(complete_graph(4)) == [list(complete_graph(4).edges)]
    scattered = gs.SimpleGraph(5, [(1, 2), (3, 4), (4, 5)])
    assert blocks_of(scattered) == [[(1, 2)], [(3, 4)], [(4, 5)]]


def test_blocks_partition_the_edges():
    graph = gs.SimpleGraph(
        8, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 8), (5, 6), (6, 7), (7, 8)]
    )
    ids = sorted(e for block in census_mod._block_edge_ids(graph) for e in block)
    assert ids == list(range(graph.m))
    assert blocks_of(graph) == [[(1, 2), (1, 3), (2, 3)], [(3, 4)], [(4, 5), (4, 8), (5, 6), (6, 7), (7, 8)]]


def test_block_decompose_deep_graphs_match_networkx():
    """Blocks of graphs whose DFS trees run thousands of vertices deep."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(3000)
    order = list(range(1, 3001))
    rng.shuffle(order)
    sparse = {tuple(sorted(p)) for p in zip(order, order[1:])}  # a Hamiltonian path
    while len(sparse) < 3600:  # plus short chords along it: many small blocks
        i = rng.randrange(2990)
        u, v = order[i], order[i + rng.randint(2, 9)]
        sparse.add((min(u, v), max(u, v)))
    for graph in [path_graph(3000), gs.SimpleGraph(3000, sorted(sparse))]:
        oracle = nx.Graph(graph.edges)
        want = sorted(
            sorted(tuple(sorted(e)) for e in comp)
            for comp in nx.biconnected_component_edges(oracle)
        )
        assert blocks_of(graph) == want


def test_cut_edge_lower_bound():
    assert gs.cut_edge_lower_bound(path_graph(4)) == 27
    assert gs.cut_edge_lower_bound(cycle_graph(4)) == 1
    tri_pendant = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    assert gs.cut_edge_lower_bound(tri_pendant) == 3


def test_is_cactus():
    assert gs.is_cactus(bowtie_minus().graph)
    assert gs.is_cactus(path_graph(4))
    assert gs.is_cactus(cycle_graph(5))
    assert not gs.is_cactus(complete_graph(4))
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert not gs.is_cactus(diamond)


def test_is_cactus_and_cut_edges_match_networkx(rng):
    nx = pytest.importorskip("networkx")
    graphs = [random_cactus(rng) for _ in range(20)]
    graphs += [random_connected_graph(rng, n_hi=10, m_cap=14) for _ in range(20)]
    graphs.append(gs.SimpleGraph(7, [(1, 2), (1, 3), (2, 3), (5, 6)]))  # isolated vertices too
    for graph in graphs:
        oracle = nx.Graph(graph.edges)
        blocks = list(nx.biconnected_component_edges(oracle))
        cactus = all(len(b) == 1 or len(b) == len({v for e in b for v in e}) for b in blocks)
        assert gs.is_cactus(graph) == cactus
        assert gs.cut_edge_lower_bound(graph) == 3 ** sum(len(b) == 1 for b in blocks)
    assert sum(gs.is_cactus(graph) for graph in graphs[20:]) < 20  # not all cacti


# -- class sizes over blocks -------------------------------------------------


def test_class_size_forest_and_triangle():
    assert gs.class_size_by_blocks(all_ones(path_graph(4))) == 27
    g = mixed(3, [(1, 2, 1), (2, 3, 1), (3, 1, 0)])  # cycle gain i * i = -1
    assert gs.class_size_by_blocks(g) == 6


def test_class_size_bowtie_and_smoke_cactus():
    phi = bowtie_minus()
    assert gs.class_size_by_blocks(phi) == 42  # 6 (gain -1) * 7 (gain 1)
    assert gs.class_size_by_blocks(phi) == gs.brute_force_census(phi.graph).size_of(
        gs.mixed_basis_profile(phi)
    )
    graph = gs.SimpleGraph(
        8, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 8), (5, 6), (6, 7), (7, 8)]
    )
    g = mixed(
        8,
        [(1, 2, 1), (1, 3, 0), (2, 3, 0), (3, 4, 0), (4, 5, 1), (4, 8, 0), (5, 6, 1), (6, 7, 0), (7, 8, 0)],
    )
    # triangle gain i (7) * bridge (3) * pentagon gain -1 (60)
    assert gs.class_size_by_blocks(g) == 1260
    assert gs.brute_force_census(graph).size_of(gs.mixed_basis_profile(g)) == 1260


def test_class_size_non_cycle_block_falls_back():
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    census = gs.brute_force_census(diamond)
    assert gs.class_size_by_blocks(all_ones(diamond)) == census.size_of((0, 0)) == 17


def test_class_size_requires_mixed():
    with pytest.raises(gs.ValidationError):
        gs.class_size_by_blocks(all_ones(path_graph(3), mixed_mode=False))


def test_class_size_random_cacti(rng):
    checked = 0
    while checked < 6:
        graph = random_cactus(rng, m_cap=10)
        if graph.m == 0:
            continue
        census = gs.brute_force_census(graph)
        for _ in range(3):
            g = random_gains(rng, graph, mixed_mode=True)
            size = gs.class_size_by_blocks(g)
            assert size == census.size_of(gs.mixed_basis_profile(g))
        if graph.m <= 8:
            assert dict(census.classes) == oracle_census(graph)
        checked += 1


# -- face structures ---------------------------------------------------------


def diamond_fixture():
    graph = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    faces = [(1, 2, 3), (2, 4, 3)]
    return graph, faces


def test_parse_face_structure_diamond():
    graph, faces = diamond_fixture()
    fs = gs.parse_face_structure(all_ones(graph), faces)
    assert fs.k == 2
    assert (fs.n_pq(1, 1), fs.n_pq(1, 2), fs.n_pq(2, 2)) == (2, 1, 2)
    assert fs.n_pq(2, 1) == fs.n_pq(1, 2)
    assert fs.nonempty_cells() == ((1, 1), (1, 2), (2, 2))
    shared = fs.cell_edges(1, 2)
    assert [graph.edges[e] for e in shared] == [(2, 3)]
    assert sum(fs.n_pq(p, q) for p, q in fs.nonempty_cells()) == graph.m


def test_parse_face_structure_rejects_bad_input():
    graph, faces = diamond_fixture()
    g = all_ones(graph)
    with pytest.raises(gs.ValidationError, match="2-connected"):
        gs.parse_face_structure(all_ones(path_graph(4)), [])
    with pytest.raises(gs.ValidationError, match="2-connected"):
        gs.parse_face_structure(bowtie_minus(), [(1, 2, 3), (2, 4, 5)])
    with pytest.raises(gs.ValidationError, match="expected 2 inner faces"):
        gs.parse_face_structure(g, [faces[0]])
    with pytest.raises(gs.ValidationError, match="fewer than 3"):
        gs.parse_face_structure(g, [(1, 2), (2, 4, 3)])
    with pytest.raises(gs.ValidationError, match="repeats a vertex"):
        gs.parse_face_structure(g, [(1, 2, 1), (2, 4, 3)])
    with pytest.raises(gs.GainGraphError):
        gs.parse_face_structure(g, [(1, 2, 4), (2, 4, 3)])  # (1, 4) is not an edge
    with pytest.raises(gs.ValidationError, match="lies on 0 faces"):
        gs.parse_face_structure(g, [(1, 2, 3), (1, 2, 3)])
    with pytest.raises(gs.ValidationError, match="same"):
        gs.parse_face_structure(g, [(1, 2, 3), (3, 4, 2)])
    with pytest.raises(gs.ValidationError, match="not a sequence of vertex sequences"):
        gs.parse_face_structure(g, 5)
    with pytest.raises(gs.ValidationError, match="not a sequence of vertex sequences"):
        gs.parse_face_structure(g, [faces[0], 7])


def test_face_gains_follow_stated_order():
    graph, faces = diamond_fixture()
    g = mixed(4, [(1, 2, 1), (1, 3, 0), (2, 3, 0), (2, 4, 0), (3, 4, 0)])
    fs = gs.parse_face_structure(g, faces)
    y = gs.face_gains(g, fs)
    assert y[0].value == I  # 1 -> 2 -> 3 -> 1 picks up the arc gain i
    assert y[1].value == 1


# -- gamma matrices ----------------------------------------------------------


def two_squares_structure():
    graph = gs.SimpleGraph(5, [(1, 2), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5)])
    fs = gs.parse_face_structure(all_ones(graph), [(1, 2, 3, 4), (3, 2, 1, 5)])
    return graph, fs


def test_gamma_two_squares_frozen_sets():
    _, fs = two_squares_structure()
    assert (fs.n_pq(1, 1), fs.n_pq(1, 2), fs.n_pq(2, 2)) == (2, 2, 2)
    got = {gamma_values(m) for m in gs.enumerate_gamma(fs, (G4.one, G4.one))}
    assert got == {
        ((1, 1), (1, 1)),
        ((-1, -1), (-1, -1)),
        ((I, -I), (I, -I)),
        ((-I, I), (-I, I)),
    }
    y = (G4.one, gs.GainExponent(G4, 2))
    got = {gamma_values(m) for m in gs.enumerate_gamma(fs, y)}
    assert got == {
        ((1, 1), (1, -1)),
        ((-1, -1), (-1, 1)),
        ((I, -I), (I, I)),
        ((-I, I), (-I, -I)),
    }


def test_gamma_matrices_satisfy_conditions(rng):
    _, fs = two_squares_structure()
    for combo in itertools.product(range(4), repeat=2):
        y = tuple(gs.GainExponent(G4, t) for t in combo)
        for mat in gs.enumerate_gamma(fs, y):
            for p in range(1, fs.k + 1):
                row = 1 + 0j
                for q in range(1, fs.k + 1):
                    e_pq = mat.entry(p, q)
                    if fs.n_pq(p, q) == 0:
                        assert e_pq is None
                        continue
                    # off-diagonal pairs are conjugate; single-edge cells exclude -1
                    if p != q:
                        assert mat.entry(q, p) == e_pq.conj()
                    if fs.n_pq(p, q) == 1:
                        assert e_pq.exp != 2
                    row *= e_pq.value
                assert abs(row - y[p - 1].value) < 1e-12


def test_gamma_single_face():
    graph = cycle_graph(5)
    fs = gs.parse_face_structure(all_ones(graph), [(1, 2, 3, 4, 5)])
    for t in range(4):
        mats = gs.enumerate_gamma(fs, (gs.GainExponent(G4, t),))
        assert len(mats) == 1
        assert mats[0].entry(1, 1).exp == t


def test_gamma_validation():
    _, fs = two_squares_structure()
    with pytest.raises(gs.ValidationError, match="face gains"):
        gs.enumerate_gamma(fs, (G4.one,))
    g2 = gs.GainGroup(2)
    with pytest.raises(gs.ValidationError, match="k = 4"):
        gs.enumerate_gamma(fs, (g2.one, g2.one))


# -- plane class sizes and counts --------------------------------------------


def test_plane_cycle_agrees_with_closed_form():
    graph = cycle_graph(5)
    fs = gs.parse_face_structure(all_ones(graph), [(1, 2, 3, 4, 5)])
    assert gs.plane_class_size(all_ones(graph), fs) == gs.cycle_class_size(5, G4.one) == 61
    g = mixed(5, [(1, 2, 1), (2, 3, 1), (3, 4, 0), (4, 5, 0), (1, 5, 0)])
    assert gs.plane_class_size(g, fs) == gs.cycle_class_size(5, gs.GainExponent(G4, 2)) == 60


def test_plane_diamond_sizes():
    graph, faces = diamond_fixture()
    fs = gs.parse_face_structure(all_ones(graph), faces)
    assert gs.plane_class_size(all_ones(graph), fs) == 17
    g = mixed(4, [(1, 2, 1), (1, 3, 0), (2, 3, 0), (2, 4, 0), (3, 4, 0)])
    assert gs.plane_class_size(g, fs) == 16
    assert gs.plane_class_count(graph, fs) == 16


def test_plane_two_squares_and_two_pentagons():
    graph, fs = two_squares_structure()
    assert gs.plane_class_size(all_ones(graph), fs) == 51
    tp = gs.SimpleGraph(7, [(1, 2), (1, 5), (1, 7), (2, 3), (3, 4), (3, 6), (4, 5), (6, 7)])
    fs_tp = gs.parse_face_structure(all_ones(tp), [(1, 2, 3, 4, 5), (3, 2, 1, 7, 6)])
    assert (fs_tp.n_pq(1, 1), fs_tp.n_pq(1, 2), fs_tp.n_pq(2, 2)) == (3, 2, 3)
    assert gs.plane_class_size(all_ones(tp), fs_tp) == 415


def test_plane_matches_brute_force_across_catalog(rng):
    for name, n, edges, faces in PLANE_CATALOG:
        graph = gs.SimpleGraph(n, edges)
        fs = gs.parse_face_structure(all_ones(graph), faces)
        census = gs.brute_force_census(graph)
        assert gs.plane_class_count(graph, fs) == census.num_classes, name
        for _ in range(2):
            g = random_gains(rng, graph, mixed_mode=True)
            want = census.size_of(gs.mixed_basis_profile(g))
            assert gs.plane_class_size(g, fs) == want, name


def test_plane_count_C4_and_validation():
    graph = cycle_graph(4)
    fs = gs.parse_face_structure(all_ones(graph), [(1, 2, 3, 4)])
    assert gs.plane_class_count(graph, fs) == 4
    with pytest.raises(gs.ValidationError):
        gs.plane_class_count(cycle_graph(5), fs)
    w_graph, w_faces = wheel_structure(14)
    w_fs = gs.parse_face_structure(all_ones(w_graph), w_faces)
    with pytest.raises(gs.InstanceTooLargeError, match="capped at d = 12, got d = 14"):
        gs.plane_class_count(w_graph, w_fs)
    with pytest.raises(gs.ValidationError):
        gs.plane_class_size(all_ones(graph, mixed_mode=False), fs)
    # the faces of C4 plus the chord 1-3 are checked against K4's graph, not
    # read as K4's (they would size its all-ones class as 17; its census says 15)
    chorded = gs.SimpleGraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
    chorded_fs = gs.parse_face_structure(all_ones(chorded), [(1, 2, 3), (1, 3, 4)])
    k4 = all_ones(complete_graph(4))
    assert gs.brute_force_census(k4.graph).size_of(gs.mixed_basis_profile(k4)) == 15
    for call in (gs.face_gains, gs.plane_class_size):
        with pytest.raises(gs.ValidationError, match="different graph"):
            call(k4, chorded_fs)


def test_symmetric_difference_law(rng):
    """zeta(C_p delta C_q) = zeta(C_p) zeta(C_q) for adjacent plane faces."""
    checked = 0
    for name, n, edges, faces in PLANE_CATALOG:
        graph = gs.SimpleGraph(n, edges)
        g = random_gains(rng, graph, mixed_mode=True)
        fs = gs.parse_face_structure(g, faces)
        y = [v.value for v in gs.face_gains(g, fs)]
        for p, q in itertools.combinations(range(1, fs.k + 1), 2):
            if fs.n_pq(p, q) == 0:
                continue
            shared = set(fs.cell_edges(p, q))
            nxt = {}
            for face_idx in (p, q):
                for e, a, b in fs.arcs[face_idx - 1]:
                    if e not in shared:
                        assert a not in nxt  # private arcs chain into one cycle
                        nxt[a] = b
            start = next(iter(nxt))
            z, cur, steps = 1 + 0j, start, 0
            while True:
                new = nxt[cur]
                z *= g.gain(cur, new).value
                cur = new
                steps += 1
                if cur == start:
                    break
            assert steps == len(nxt)
            assert abs(z - y[p - 1] * y[q - 1]) < 1e-12, name
            checked += 1
    assert checked >= 15


# -- convolution census and scan chunks --------------------------------------


def cycle_incidence(graph):
    """Signed incidence of each edge on the default basis cycles, walked as
    vertex sequences: +1 (-1) where a cycle runs an edge from its smaller
    (larger) end, 0 where it avoids the edge."""
    basis = gs.fundamental_cycles(graph, gs.spanning_forest(graph))
    sigma = [[0] * len(basis) for _ in range(graph.m)]
    for j, cyc in enumerate(basis.cycles):
        closed = list(cyc) + [cyc[0]]
        for a, b in zip(closed, closed[1:]):
            sigma[graph.edge_id(a, b)][j] = 1 if a < b else -1
    return sigma


def roll_convolve(d, steps):
    """Reference for ``census._convolve``, its runs given as ``series_step``
    steps: each step sums weight * np.roll(W, shift) over the whole (4,)*d
    array, int64 while the product of the step totals is below 2^63 and
    Python integers past it."""
    steps = [list(step) for step in steps]
    exact = np.prod([sum(weight for _, weight in step) for step in steps], dtype=object) < 2**63
    w = np.zeros((4,) * d, dtype=np.int64 if exact else object)
    w[(0,) * d] = 1
    for step in steps:
        out = np.zeros_like(w)
        for shift, weight in step:
            if weight:
                out += weight * (np.roll(w, shift, tuple(range(d))) if any(shift) else w)
        w = out
    return w


def dp_census(graph):
    """Nonzero profile counts of the whole graph's cycle-space convolution,
    one step per edge over the default basis, as a dict; convolved by
    ``roll_convolve``, not the library's own route."""
    r = graph.m - graph.n + graph.num_components
    zero = (0,) * r
    steps = [
        [(zero, 1), (tuple(s), 1), (tuple(-x for x in s), 1)]  # gain 1, i, -i on edge e
        for s in cycle_incidence(graph)
    ]
    counts = roll_convolve(r, steps)
    return {
        tuple(int(x) for x in p): int(counts[p])
        for p in itertools.product(range(4), repeat=counts.ndim)
        if counts[p]
    }


def random_mixed_graph(rng, m_cap=11):
    """Mixed orientation of a random graph with up to three components.

    Components are random connected graphs; some are joined by a bridge and
    pendant edges are hung off random vertices, so both cut edges and
    separate components occur.
    """
    while True:
        n, edges = 0, []
        for _ in range(rng.randint(1, 3)):
            part = random_connected_graph(rng, n_lo=2, n_hi=5, m_cap=8)
            if n and rng.random() < 0.5:
                edges.append((rng.randint(1, n), n + rng.randint(1, part.n)))
            edges += [(u + n, v + n) for u, v in part.edges]
            n += part.n
        for _ in range(rng.randint(0, 2)):
            n += 1
            edges.append((rng.randint(1, n - 1), n))
        if len(edges) <= m_cap:
            return random_gains(rng, gs.SimpleGraph(n, sorted(edges)), mixed_mode=True)


def glued_non_cycle_blocks(rng):
    """Two non-cycle blocks through one cut vertex, randomly labelled, with
    an optional pendant edge and up to two isolated vertices."""
    theta = [(1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)]
    diamond = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    shapes = [(4, diamond), (4, list(complete_graph(4).edges)), (5, theta)]
    (n1, e1), (n2, e2) = rng.choice(shapes), rng.choice(shapes)
    cut = rng.randint(1, n1)
    second = {v: cut if v == 1 else n1 + v - 1 for v in range(1, n2 + 1)}
    edges = e1 + [(second[u], second[v]) for u, v in e2]
    n = n1 + n2 - 1
    if len(edges) < 12 and rng.random() < 0.5:
        n += 1
        edges.append((rng.randint(1, n - 1), n))
    n += rng.randint(0, 2)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    edges = sorted({tuple(sorted((label[u - 1], label[v - 1]))) for u, v in edges})
    return random_gains(rng, gs.SimpleGraph(n, edges), mixed_mode=True)


def test_block_convolution_matches_census_on_random_mixed_graphs():
    rng = random.Random(4004)
    several_components = with_bridges = non_cycle_blocks = shared_cut = isolated = 0
    graphs = [random_mixed_graph(rng) for _ in range(220)]
    graphs += [glued_non_cycle_blocks(rng) for _ in range(30)]
    for g in graphs:
        census = gs.brute_force_census(g.graph)
        assert gs.class_size_by_blocks(g) == census.size_of(gs.mixed_basis_profile(g))
        blocks = [({v for e in ids for v in g.graph.edges[e]}, len(ids)) for ids in census_mod._block_edge_ids(g.graph)]
        several_components += g.graph.num_components > 1
        with_bridges += any(m == 1 for _, m in blocks)
        non_cycle = [verts for verts, m in blocks if m > len(verts)]
        non_cycle_blocks += bool(non_cycle)
        shared_cut += any(p & q for p, q in itertools.combinations(non_cycle, 2))
        isolated += any(g.graph.degree(v) == 0 for v in range(1, g.graph.n + 1))
    assert several_components >= 50 and with_bridges >= 100 and non_cycle_blocks >= 80
    assert shared_cut >= 30 and isolated >= 15


def series_mixed_graph(rng):
    """A random connected graph (n 4-5) with some of its edges, at least one,
    subdivided into runs of 2-6 edges in series, and random mixed gains."""
    base = random_connected_graph(rng, n_lo=4, n_hi=5, m_cap=8)
    runs = [rng.choice((1, 1, 2, 3, 4, 6)) for _ in base.edges]
    runs[rng.randrange(len(runs))] = rng.randint(2, 6)
    n, edges = base.n, []
    for (u, v), length in zip(base.edges, runs):
        path = [u, *range(n + 1, n + length), v]
        n += length - 1
        edges += [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]
    return random_gains(rng, gs.SimpleGraph(n, sorted(edges)), mixed_mode=True)


def test_block_series_steps_match_per_edge_steps():
    """Edges in series make one run of the block convolution: the block
    product equals one 3-term step per edge over the whole graph, and the
    scan where m <= 16."""
    rng = random.Random(4005)
    scanned = in_series = 0
    for _ in range(160):
        g = series_mixed_graph(rng)
        profile = gs.mixed_basis_profile(g)
        size = gs.class_size_by_blocks(g)
        assert size == dp_census(g.graph)[profile]
        if g.graph.m <= 16:
            assert size == gs.brute_force_census(g.graph).size_of(profile)
            scanned += 1
        blocks = [({v for e in ids for v in g.graph.edges[e]}, len(ids)) for ids in census_mod._block_edge_ids(g.graph)]
        # a non-cycle block through a degree-2 vertex holds a run of edges in series
        in_series += any(m > len(verts) and any(g.graph.degree(v) == 2 for v in verts) for verts, m in blocks)
    assert scanned >= 40 and in_series >= 60, (scanned, in_series)


def test_block_sizes_reach_a_3000_triangle_cactus():
    """One chord per triangle: the product of alpha factors, with no convolution."""
    triangles = [(2 * j + 1, 2 * j + 2, 2 * j + 3) for j in range(3000)]
    graph = gs.SimpleGraph(6001, [e for a, b, c in triangles for e in ((a, b), (a, c), (b, c))])
    g = random_gains(random.Random(3000), graph, mixed_mode=True)
    start = time.process_time()
    size = gs.class_size_by_blocks(g)
    assert time.process_time() - start < 1.0
    alpha = gs.alpha_closed_form(3)
    want = 1
    for triangle in triangles:
        want *= alpha.component(gs.cycle_gain(g, triangle))
    assert size == want


def test_block_sizes_and_face_parsing_build_no_graphs(monkeypatch):
    """Both read the host graph's own edge ids: no SimpleGraph per block."""
    graph, faces = prism_structure(5)
    plane = random_gains(random.Random(5), graph, mixed_mode=True)
    inputs = (plane, glued_non_cycle_blocks(random.Random(6)), bowtie_minus())
    built = []
    init = gs.SimpleGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(gs.SimpleGraph, "__init__", counting_init)
    for g in inputs:
        gs.class_size_by_blocks(g)
    gs.parse_face_structure(plane, faces)
    assert built == []


def test_census_lists_no_fundamental_cycles(monkeypatch):
    """Bounds, the scan and block sizes walk the forest; no cycle basis is built."""
    built = []
    real = gs.switching.FundamentalCycleBasis
    monkeypatch.setattr(gs.switching, "FundamentalCycleBasis", lambda *fields: built.append(1) or real(*fields))
    graph, _ = prism_structure(4)
    inputs = (random_gains(random.Random(4), graph, mixed_mode=True), glued_non_cycle_blocks(random.Random(7)))
    for g in inputs:
        gs.class_count_bounds(g.graph)
        gs.brute_force_census(g.graph)
        gs.class_size_by_blocks(g)
    assert built == []
    gs.fundamental_cycles(graph, gs.spanning_forest(graph))
    assert built == [1]


def connected_graph_with_m_edges(rng, m, n_lo, n_hi):
    graph = random_connected_graph(rng, n_lo=n_lo, n_hi=n_hi, m_cap=m)
    while graph.m != m:
        graph = random_connected_graph(rng, n_lo=n_lo, n_hi=n_hi, m_cap=m)
    return graph


def test_scan_over_several_chunks_matches_convolution_census():
    rng = random.Random(1314)
    graphs = [connected_graph_with_m_edges(rng, m, 6, 9) for m in (13, 13, 14, 14)]
    assert sorted(graph.m for graph in graphs) == [13, 13, 14, 14]
    # ranks 8 and 9: chunks wider than 10 digits, and the high digits still iterate
    graphs += [connected_graph_with_m_edges(rng, 15, 7, 7), connected_graph_with_m_edges(rng, 16, 8, 8)]
    assert max(graph.m - graph.n + 1 for graph in graphs) == 9
    for graph in graphs:  # 27 to 81 chunks of 3^10 to 3^12 orientations
        census = gs.brute_force_census(graph)
        assert census.total == 3**graph.m
        assert dict(census.classes) == dp_census(graph)


def test_scan_in_small_chunks_matches_wide_chunks(monkeypatch):
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    graphs = [path_graph(4), cycle_graph(5), diamond, bowtie_minus().graph, complete_graph(4)]
    want = [gs.brute_force_census(graph) for graph in graphs]
    monkeypatch.setattr(census_mod, "_LOW_DIGITS", 2)  # many high-digit chunks
    for graph, census in zip(graphs, want):
        assert gs.brute_force_census(graph) == census
        assert dict(census.classes) == oracle_census(graph)


def test_census_profiles_come_out_sorted():
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    graphs = [diamond, bowtie_minus().graph, complete_graph(4), complete_graph(5)]
    census = gs.brute_force_census(diamond)
    assert [p for p, _ in census.classes] == list(itertools.product(range(4), repeat=2))
    forest = gs.brute_force_census(path_graph(4))  # rank 0: the one empty profile
    assert forest.classes == (((), 27),)
    for graph in graphs:
        profiles = [p for p, _ in gs.brute_force_census(graph).classes]
        assert profiles == sorted(profiles)
        assert len(set(profiles)) == len(profiles)


class RecordingNumpy:
    """numpy for the census module, recording the length of every key array
    it bins by ``np.bincount``."""

    def __init__(self):
        self.binned = []  # keys binned, per call

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, keys, *args, **kwargs):
        self.binned.append(len(keys))
        return np.bincount(keys, *args, **kwargs)


def test_scan_bins_every_orientation_once_in_wide_chunks(monkeypatch):
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    rng = random.Random(77)
    graphs = [path_graph(4), cycle_graph(5), diamond, complete_graph(4),
              connected_graph_with_m_edges(rng, 13, 7, 7), connected_graph_with_m_edges(rng, 14, 7, 7),
              connected_graph_with_m_edges(rng, 15, 6, 6)]
    assert [graph.m - graph.n + 1 for graph in graphs] == [0, 1, 2, 3, 7, 8, 10]
    recorder = RecordingNumpy()
    monkeypatch.setattr(census_mod, "np", recorder)
    for graph in graphs:
        r = graph.m - graph.n + 1
        for low_digits in (10, 2)[: 1 if graph.m > 6 else 2]:  # small chunks on small graphs only
            monkeypatch.setattr(census_mod, "_LOW_DIGITS", low_digits)
            recorder.binned.clear()
            gs.brute_force_census(graph)
            assert sum(recorder.binned) == 3**graph.m
            assert min(recorder.binned) >= min(3**graph.m, 4**r)  # no chunk shorter than the 4^r bins


def test_census_above_the_rank_cap_is_refused_before_the_scan(monkeypatch):
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    recorder = RecordingNumpy()
    monkeypatch.setattr(census_mod, "np", recorder)
    monkeypatch.setattr(census_mod, "_MAX_DENSE_DIM", 1)
    with pytest.raises(gs.InstanceTooLargeError, match="rank"):
        gs.brute_force_census(diamond)
    assert recorder.binned == []
    assert gs.brute_force_census(cycle_graph(5)).num_classes == 4  # rank 1 is still scanned
    assert recorder.binned != []


def test_census_is_its_weight_array():
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    census = gs.brute_force_census(diamond)
    w = census.weights
    assert w.shape == (4, 4) and w.dtype == np.int64 and not w.flags.writeable
    assert int(w.sum()) == census.total == 3**5
    assert census.num_classes == np.count_nonzero(w) == 16
    assert census.size_of((0, 0)) == census.size_of(np.array([0, 0])) == w[0, 0] == 17
    assert "classes" not in vars(census)  # num_classes and size_of read the array
    assert dict(census.classes) == {p: int(w[p]) for p in itertools.product(range(4), repeat=2)}
    assert census == gs.brute_force_census(diamond) and census != gs.brute_force_census(cycle_graph(5))
    with pytest.raises(ValueError):
        w[0, 0] = 0
    forest = gs.brute_force_census(path_graph(3))  # rank 0: a 0-d array
    assert forest.weights.shape == () and forest.size_of(()) == 9 and forest.num_classes == 1


def test_size_of_rejects_malformed_profiles():
    census = gs.brute_force_census(gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]))
    assert census.size_of((3, 3)) >= 1
    for bad in [(0,), (0, 0, 0), (), (4, 0), (0, 4), (-1, 0), (0, -1), (0.0, 0), (1.5, 0), ("0", 0), (None, 0),
                (False, 1), 5]:
        with pytest.raises(gs.ValidationError):
            census.size_of(bad)
    triangle = gs.brute_force_census(cycle_graph(3))
    for bad in [(-2,), (True,), 5]:  # (-2,) would wrap to the attained W[2]; True would be a mask
        with pytest.raises(gs.ValidationError):
            triangle.size_of(bad)
    assert triangle.size_of((np.int64(1),)) == 7


# Exponent k of i^k as a Gaussian integer (re, im).
I_POWER = ((1, 0), (0, 1), (-1, 0), (0, -1))


def character_sum_census(graph):
    """Class sizes by characters of Z_4^r, in exact Gaussian integers.

    Count(p) = 4^-r sum_chi i^-<chi, p> prod_e (1 + 2 Re i^<chi, sigma_e>):
    each edge contributes 1 + i^a + i^-a for a = <chi, sigma_e>, which is
    3, 1, -1, 1 for a = 0, 1, 2, 3.
    """
    r = graph.m - graph.n + graph.num_components
    sigma = cycle_incidence(graph)
    factor = (3, 1, -1, 1)
    product = {}
    for chi in itertools.product(range(4), repeat=r):
        prod = 1
        for s in sigma:
            prod *= factor[sum(c * x for c, x in zip(chi, s)) % 4]
        product[chi] = prod
    counts = {}
    for p in itertools.product(range(4), repeat=r):
        re = im = 0
        for chi, prod in product.items():
            x, y = I_POWER[-sum(c * t for c, t in zip(chi, p)) % 4]
            re, im = re + x * prod, im + y * prod
        assert im == 0 and re % 4**r == 0
        if re:
            counts[p] = re // 4**r
    return counts


def test_census_matches_character_sums():
    rng = random.Random(1982)
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    graphs = [cycle_graph(5), diamond, complete_graph(4), bowtie_minus().graph]
    graphs += [gs.SimpleGraph(n, edges) for name, n, edges, _ in PLANE_CATALOG if name in ("prism", "house")]
    while len(graphs) < 12:
        graph = random_connected_graph(rng, n_lo=4, n_hi=8, m_cap=11)
        if graph.m - graph.n + 1 <= 4:
            graphs.append(graph)
    for graph in graphs:
        want = character_sum_census(graph)
        assert dict(gs.brute_force_census(graph).classes) == want
        assert dp_census(graph) == want
        # counts cannot see an edge's sign (its gains are symmetric), so the
        # forest walk's signs are checked against the vertex walks directly
        f = gs.spanning_forest(graph)
        chords = [e for e in range(graph.m) if f.is_chord[e]]
        assert census_mod._basis_incidence(graph, f, chords, range(graph.m)) == cycle_incidence(graph)


def prism_structure(k):
    """C_k x K_2 with its k quads and inner k-gon as faces."""
    edges = [(i, i % k + 1) for i in range(1, k + 1)]
    edges += [(k + i, k + i % k + 1) for i in range(1, k + 1)] + [(i, k + i) for i in range(1, k + 1)]
    faces = [(i, i % k + 1, k + i % k + 1, k + i) for i in range(1, k + 1)]
    faces.append(tuple(k + i for i in range(1, k + 1)))
    return gs.SimpleGraph(2 * k, sorted((min(e), max(e)) for e in edges)), faces


def wheel_structure(k):
    """Rim 1..k and hub k + 1, with the k triangles as faces."""
    edges = [(i, i % k + 1) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    faces = [(i, i % k + 1, k + 1) for i in range(1, k + 1)]
    return gs.SimpleGraph(k + 1, sorted((min(e), max(e)) for e in edges)), faces


def grid_structure(rows, cols):
    """rows x cols grid of vertices with its inner squares as faces."""
    def vid(i, j):
        return i * cols + j + 1

    edges = [(vid(i, j), vid(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(vid(i, j), vid(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    faces = [
        (vid(i, j), vid(i, j + 1), vid(i + 1, j + 1), vid(i + 1, j))
        for i in range(rows - 1)
        for j in range(cols - 1)
    ]
    return gs.SimpleGraph(rows * cols, sorted(edges)), faces


def gamma_sum(fs, y):
    """Sum of alpha products over enumerate_gamma, and whether any matrix exists."""
    total, found = 0, False
    for mat in gs.enumerate_gamma(fs, y):
        found = True
        prod = 1
        for p, q in fs.nonempty_cells():
            prod *= gs.alpha_vector(fs.n_pq(p, q)).component(mat.entry(p, q))
        total += prod
    return total, found


@pytest.mark.parametrize(
    "name, structure",
    [
        ("prism3", prism_structure(3)),
        ("prism4", prism_structure(4)),
        ("wheel3", wheel_structure(3)),
        ("wheel4", wheel_structure(4)),
        ("wheel5", wheel_structure(5)),
        ("grid2x4", grid_structure(2, 4)),
        ("grid3x3", grid_structure(3, 3)),
    ],
)
def test_face_convolution_matches_gamma_enumeration(name, structure):
    graph, faces = structure
    fs = gs.parse_face_structure(all_ones(graph), faces)
    weights = fs.weights
    assert weights.shape == (4,) * fs.k and int(weights.sum()) == 3**graph.m
    vectors = list(itertools.product(range(4), repeat=fs.k))
    if name == "prism4":  # 531441 gamma matrices in all: check a seeded sample of y
        vectors = random.Random(4).sample(vectors, 24)
    for y in vectors:
        total, found = gamma_sum(fs, tuple(gs.GainExponent(G4, t) for t in y))
        assert int(weights[y]) == total, (name, y)
        assert bool(weights[y]) == found, (name, y)
    census = gs.brute_force_census(graph)
    assert gs.plane_class_count(graph, fs) == census.num_classes == int((weights != 0).sum())


def test_face_weights_are_built_once(monkeypatch):
    calls = []
    convolve = census_mod._convolve
    monkeypatch.setattr(census_mod, "_convolve", lambda *args: calls.append(args) or convolve(*args))
    graph, faces = wheel_structure(4)
    g = all_ones(graph)
    fs = gs.parse_face_structure(g, faces)
    assert gs.plane_class_count(graph, fs) == 4**4  # every face has a private rim edge
    assert gs.plane_class_size(g, fs) == gs.brute_force_census(graph).size_of(gs.mixed_basis_profile(g))
    assert len(calls) == 1 and not fs.weights.flags.writeable
    wheel, faces = wheel_structure(13)  # 13 faces, above the convolution's cap
    fs = gs.parse_face_structure(all_ones(wheel), faces)
    for _ in range(2):
        with pytest.raises(gs.InstanceTooLargeError):
            gs.plane_class_count(wheel, fs)
    assert "weights" not in vars(fs) and len(calls) == 3


def theta_graph(length):
    """Vertices 1 and 2 joined by three paths of ``length`` edges, with its two faces."""
    n, paths = 2, []
    for _ in range(3):
        inner = list(range(n + 1, n + length))
        n += length - 1
        paths.append([1] + inner + [2])
    edges = sorted((min(a, b), max(a, b)) for path in paths for a, b in zip(path, path[1:]))
    a, b, c = paths
    faces = [tuple(a + b[-2:0:-1]), tuple(b + c[-2:0:-1])]
    return gs.SimpleGraph(n, edges), faces


@pytest.mark.parametrize("length", [14, 16])
def test_convolutions_stay_exact_past_int64(length):
    """m = 42 or 48 edges: 3^m exceeds 2^63, so the weights are Python integers."""
    graph, faces = theta_graph(length)
    assert graph.m == 3 * length and 3**graph.m > 2**63
    rng = random.Random(length)
    alpha = gs.alpha_vector(length)
    for _ in range(4):
        g = random_gains(rng, graph, mixed_mode=True)
        fs = gs.parse_face_structure(g, faces)
        y1, y2 = (x.exp for x in gs.face_gains(g, fs))
        # row 1: x_11 + x_12 = y1; row 2: x_22 - x_12 = y2
        want = sum(
            alpha.component(G4.element(y1 - x))
            * alpha.component(G4.element(x))
            * alpha.component(G4.element(y2 + x))
            for x in range(4)
        )
        assert gs.class_size_by_blocks(g) == gs.plane_class_size(g, fs) == want
    if length == 16:
        assert want > 2**63  # an int64 accumulator would have wrapped
    assert gs.plane_class_count(graph, fs) == 16


def series_step(column, count):
    """The roll reference's step for a run of ``count`` edges in series:
    shift x * column weighted by alpha_x(count), from the alpha recurrence."""
    alpha = gs.alpha_vector(count)
    return [(tuple(x * c for c in column), alpha.component(G4.element(x))) for x in range(4)]


@pytest.mark.parametrize("d", range(10))
def test_convolution_matches_roll_reference(d):
    """Runs of edges in series, by characters, against np.roll steps."""
    rng = random.Random(d)

    def column():  # entries outside 0..3 are taken mod 4
        return tuple(rng.randint(-5, 8) for _ in range(d))

    zero = (0,) * d
    cases = [
        [],
        [(zero, 3)],
        [((4,) * d, 2), (column(), 1)],
        [(column(), rng.choice((1, 2, 3, 5))) for _ in range(4)],
        [(column(), 20), (zero, 1), (column(), 17)],  # m = 38: the last int64 case
        [(column(), 20), (column(), 19)],  # m = 39: Python integers
        [(column(), 60), ((1,) * d, 1), (column(), 45)],
    ]
    for runs in cases:
        got = census_mod._convolve(d, runs)
        want = roll_convolve(d, [series_step(c, count) for c, count in runs])
        assert got.shape == want.shape == (4,) * d
        assert got.dtype == (np.int64 if sum(count for _, count in runs) <= 38 else object)
        assert got.tolist() == want.tolist(), runs


def test_convolution_in_one_dimension_is_the_alpha_vector():
    """One run of n edges on Z_4 counts the words of each product: alpha(n)
    read by exponent, across the switch to Python integers at n = 39."""
    for n in range(46):
        w = census_mod._convolve(1, [((1,), n)])
        alpha = gs.alpha_vector(n)
        assert w.tolist() == [alpha.one, alpha.i, alpha.minus_one, alpha.minus_i], n
        assert w.dtype == (np.int64 if n <= 38 else object)


def test_convolution_caps():
    assert census_mod._convolve(1, [((1,), 38)]).dtype == np.int64
    assert census_mod._convolve(1, [((1,), 39)]).dtype == object
    with pytest.raises(gs.InstanceTooLargeError):
        census_mod._convolve(13, [])
    with pytest.raises(gs.InstanceTooLargeError):  # Python-int weights: cap 10
        census_mod._convolve(11, [((0,) * 11, 39)])
    with pytest.raises(gs.InstanceTooLargeError, match="capped at d = 12, got d = 15"):
        gs.class_size_by_blocks(all_ones(complete_graph(7)))  # one block of rank 15


def test_block_dimension_is_refused_before_the_incidence(monkeypatch):
    """A mixed 2 x 40 ladder (n 80, m 118) is one block of rank 39: past the
    Python-int cap of 10, which is asked before the block's incidence is built."""
    rails = [(i, i + 1) for i in (*range(1, 40), *range(41, 80))]
    ladder = rails + [(i, 40 + i) for i in range(1, 41)]
    g = gs.build_gain_graph(80, gs.GainGroup(4), [(u, v, (0, 1, 3)[e % 3]) for e, (u, v) in enumerate(ladder)],
                            mixed_mode=True)
    assert (g.graph.n, g.graph.m) == (80, 118)

    def unbuilt(*args):
        raise AssertionError("the block's incidence was built")

    monkeypatch.setattr(census_mod, "_basis_incidence", unbuilt)
    with pytest.raises(gs.InstanceTooLargeError, match="capped at d = 10, got d = 39"):
        gs.class_size_by_blocks(g)
