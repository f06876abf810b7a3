"""Spanning forests, cycle bases, switching, and the equivalence decision.

Claims covered:
    - forests span every vertex with one root per component, acyclically,
      and name each forest edge's id at its child end; the default forest
      equals the one for the identity vertex order
    - every field of the default and of a re-ranked forest equals that of a
      breadth-first walk over per-vertex neighbour lists built from
      ``edges`` (disconnected graphs, isolated vertices, n 0 and 1), and
      ``neighbors(v)`` is v's row of ``csr``, whose parallel ``edge_ids``
      row holds the id of each of those edges
    - with the array passes on every graph and on none, csr, the default
      forest (equal to the oracle's), the normal forms, witnesses and first
      differences agree on seeded graphs: n 0 and 1, isolated vertices,
      several components, paths, cycles, ladders, stars, a matching and
      random sparse graphs up to n 3000, walked by levels to the end,
      handed to the queue loop, or with later components left to it
    - past ``_ARRAY_WALK_EDGES`` edges, a graph of several large components
      or with isolated vertices (vertex 1 and vertex n among them) stays on
      the level walk without building ``csr``: its forest equals the queue
      walk's, its trees are networkx's components, and its normal form and
      chord-path counts equal those on the queue walk's forest
    - the fundamental basis has m - n + c chord-first cycles, equal to the
      vertex-path construction on default and re-ranked forests
    - switching preserves every cycle gain; witnesses verify exactly, and
      the equivalence verdict ignores the mixed flag
    - verdicts are forest-independent and chordless-agreement holds
    - simple and chordless cycles are listed in a pinned order: by least
      vertex, then depth first over ascending neighbours (K4, the diamond)
    - two witnesses differ by one constant per connected component
    - agreement on every non-cut edge is sufficient for equivalence
    - balance, gain character (against every cycle's gain, thetas included),
      the bipartition (against networkx and a breadth-first 2-coloring) and
      the bipartite negation criterion, whose witness is the 2-coloring's
    - an empty cycle, a face or cycle gain that is not a k = 4
      ``GainExponent``, the group of a switching function on no vertices,
      a vertex order or walk holding a string, ``has_edge`` on a string, an
      elementary order or an enumeration cap that is not an integer (a
      list included, which no cache may see) raise ValidationError; a
      numpy-int cap refuses as its int does
    - a graph's normal form (vertex potentials and chord exponents) is
      computed once per forest object: an inequivalent decision with its
      first difference and balance test makes one pass per graph, the
      readers of one graph share one pass, and a ``forest=`` argument or a
      re-ranked forest gets its own pass and its own basis
"""

import itertools
import math
import random

import numpy as np
import pytest

import gainswitch as gs
from gainswitch.errors import InstanceTooLargeError, ValidationError

from conftest import (
    G4,
    all_ones,
    complete_graph,
    cycle_graph,
    arc_triangle,
    bowtie_i,
    bowtie_minus,
    mixed,
    path_graph,
    random_cactus,
    random_connected_graph,
    random_bipartite_graph,
    random_gains,
    random_graph,
    random_switching,
    tree_path_cycles,
)


def oracle_cycles(graph):
    """All simple cycles as vertex tuples, via edge-subset filtering.

    Independent of the production DFS: every edge subset that induces a
    single connected 2-regular component is a cycle.
    """
    cycles = []
    for r in range(3, graph.m + 1):
        for subset in itertools.combinations(range(graph.m), r):
            deg = {}
            for e in subset:
                u, v = graph.edges[e]
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if any(d != 2 for d in deg.values()) or len(deg) != r:
                continue
            adj = {v: [] for v in deg}
            for e in subset:
                u, v = graph.edges[e]
                adj[u].append(v)
                adj[v].append(u)
            start = min(deg)
            seq = [start, min(adj[start])]
            while len(seq) < r:
                a, b = seq[-2], seq[-1]
                seq.append(adj[b][0] if adj[b][0] != a else adj[b][1])
            if seq[-1] in adj[start] and len(set(seq)) == r:
                cycles.append(tuple(seq))
    return cycles


def oracle_cycle_gain(g, cycle):
    value = 1 + 0j
    walk = list(cycle) + [cycle[0]]
    for u, v in zip(walk, walk[1:]):
        value *= g.gain(u, v).value
    return value


def test_spanning_forest_shape():
    rng = random.Random(11)
    for _ in range(30):
        graph = random_connected_graph(rng, n_hi=9)
        f = gs.spanning_forest(graph)
        roots = [v for v in range(1, graph.n + 1) if f.parent[v] == 0]
        assert len(roots) == graph.num_components
        assert f.is_chord.count(False) == graph.n - graph.num_components
        for v in range(1, graph.n + 1):
            p = f.parent[v]
            if p:
                assert graph.edges[f.parent_edge[v]] == (min(v, p), max(v, p))
                assert f.depth[v] == f.depth[p] + 1
            else:
                assert f.depth[v] == 0 and f.parent_edge[v] == -1
        assert sorted(f.parent_edge[1:]) == [-1] * graph.num_components + [e for e in range(graph.m) if not f.is_chord[e]]
        assert sorted(f.bfs_order) == list(range(1, graph.n + 1))


def oracle_forest(graph, vertex_order=None):
    """The breadth-first forest walked over per-vertex neighbour lists.

    The lists are built from ``edges`` by appending, and each is sorted by
    the rank of its neighbours in ``vertex_order`` (numeric order when it is
    None); roots are taken in that order too.
    """
    n = graph.n
    roots = list(range(1, n + 1) if vertex_order is None else vertex_order)
    rank = {v: pos for pos, v in enumerate(roots)}
    arcs = [[] for _ in range(n + 1)]
    for e, (u, v) in enumerate(graph.edges):
        arcs[u].append((v, e))
        arcs[v].append((u, e))
    for row in arcs:
        row.sort(key=lambda arc: rank[arc[0]])
    parent, root, depth, parent_edge = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1), [-1] * (n + 1)
    order, is_chord = [], [True] * graph.m
    for s in roots:
        if root[s]:
            continue
        root[s] = s
        tree = [s]
        for v in tree:
            for w, e in arcs[v]:
                if not root[w]:
                    root[w], parent[w], depth[w], parent_edge[w] = s, v, depth[v] + 1, e
                    is_chord[e] = False
                    tree.append(w)
        order += tree
    return gs.SpanningForest(*map(tuple, (parent, root, depth, order, is_chord, parent_edge)))


def test_forests_match_the_neighbour_list_walk(rng):
    """Default and re-ranked forests equal the oracle field by field, and the
    neighbour views are the rows of the flat ``csr`` columns."""
    graphs = [gs.SimpleGraph(0, []), gs.SimpleGraph(1, []), gs.SimpleGraph(2, []), gs.SimpleGraph(2, [(2, 1)])]
    for _ in range(400):
        n = rng.randint(0, 14)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        density = rng.choice((0.0, 0.1, 0.25, 0.5, 1.0))
        graphs.append(gs.SimpleGraph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs if rng.random() < density]))
    seen = {"several components": 0, "isolated vertex": 0, "n 0": 0, "n 1": 0}
    for graph in graphs:
        n = graph.n
        seen["several components"] += graph.num_components > 1
        seen["isolated vertex"] += any(graph.degree(v) == 0 for v in range(1, n + 1))
        seen["n 0"] += n == 0
        seen["n 1"] += n == 1
        offsets, neighbours, edge_ids = graph.csr
        assert len(offsets) == n + 2 and offsets[:2] == (0, 0) and offsets[-1] == len(neighbours) == 2 * graph.m
        rows = [slice(offsets[v], offsets[v + 1]) for v in range(n + 1)]
        assert tuple(map(graph.neighbors, range(1, n + 1))) == tuple(neighbours[r] for r in rows[1:])
        assert all([graph.edge_id(v, w) for w in graph.neighbors(v)] == list(edge_ids[rows[v]]) for v in range(1, n + 1))
        assert gs.spanning_forest(graph) == oracle_forest(graph)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        assert gs.spanning_forest(graph, order) == oracle_forest(graph, order)
    assert min(seen.values()) >= 1, seen


def ladder(length, label):
    """The 2 x length ladder: rails 1..L and L+1..2L, rungs (i, L + i), relabelled by ``label``."""
    rails = [(i, i + 1) for i in (*range(1, length), *range(length + 1, 2 * length))]
    return [(label[u], label[v]) for u, v in rails + [(i, length + i) for i in range(1, length + 1)]]


def route_graphs(rng):
    """(name, n, edges) of the seeded graphs both walk routes are compared on."""
    def shuffled(n):
        label = list(range(1, n + 1))
        rng.shuffle(label)
        return [0, *label]

    def sparse(n, m, offset=0, connected=True):
        edges = {tuple(sorted((rng.randint(1, v - 1), v))) for v in range(2, n + 1)} if connected else set()
        while len(edges) < m:
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        label = shuffled(n)
        return [(label[u] + offset, label[v] + offset) for u, v in edges]

    same = list(range(6000))
    yield "n 0", 0, []
    yield "n 1", 1, []
    yield "isolated vertices", 9, [(2, 5), (5, 7), (2, 7), (3, 4)]
    yield "first component small", 605, [(1, 2), (2, 3), (1, 3)] + sparse(600, 900, offset=4)
    yield "isolated vertex 1", 801, sparse(800, 1200, offset=1)
    yield "many components", 3000, sparse(3000, 2200, connected=False)
    for n in (2, 40, 700):
        yield f"path {n}", n, [(i, i + 1) for i in range(1, n)]
    for n in (3, 100, 1200):
        label = shuffled(n) if n > 3 else same
        yield f"cycle {n}", n, [(label[i], label[i % n + 1]) for i in range(1, n + 1)]
    for length in (3, 40, 700):
        yield f"ladder {length}", 2 * length, ladder(length, same)
    yield "shuffled ladder 500", 1000, ladder(500, shuffled(1000))
    yield "matching 600", 1200, [(2 * i - 1, 2 * i) for i in range(1, 601)]
    for n in (6, 600):
        yield f"star {n}", n, [(1, v) for v in range(2, n + 1)]
        yield f"star {n} centred at n", n, [(v, n) for v in range(1, n)]
    for n, ratio in ((10, 2.0), (200, 1.2), (500, 2.5), (1000, 1.5), (3000, 1.2), (3000, 2.5)):
        yield f"sparse {n} x {ratio}", n, sparse(n, round(n * ratio))


def decided_by(route, n, edges, k, seed):
    """What the decision path reads off a graph built with the array passes on
    every graph ("array") or on none ("python"): csr, the default forest, the
    normal forms of gains a and of a with one chord changed (c), the witness
    for a against a switched copy, and the first difference of a and c."""
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gs.gaincore, "_ARRAY_WALK_EDGES", 0 if route == "array" else math.inf)
        graph = gs.SimpleGraph(n, edges)
        group = gs.GainGroup(k)
        a = gs.GainGraph(graph, group, [rng.randrange(k) for _ in range(graph.m)])
        b = gs.apply_switching(a, gs.SwitchingFunction(group, tuple(rng.randrange(k) for _ in range(n))))
        f = gs.spanning_forest(graph)
        assert f == oracle_forest(graph), route
        chord = f.is_chord.index(True) if True in f.is_chord else None
        c = gs.GainGraph(graph, group, [(t + 1) % k if e == chord else t for e, t in enumerate(a.exps)])
        normal = [gs.switching._normal_form(g, f) for g in (a, b, c)]
        found = (
            gs.switching_equivalent(a, b), gs.switching_equivalent(a, c), gs.first_profile_difference(a, c),
            gs.is_balanced(a), gs.bipartition(graph), gs.normalize_to_forest(c),
        )
        return graph.csr, f, normal, found, f._arrays is not None


def test_level_walk_and_queue_walk_agree(rng):
    """Both routes give the same csr, the oracle's forest, and the same normal
    forms and decisions, whether the level walk finishes a graph, hands a
    narrow walk to the queue loop, or leaves later components to it."""
    walked = {True: 0, False: 0}
    for i, (name, n, edges) in enumerate(route_graphs(rng)):
        k = (4, 6, 5)[i % 3]
        array, python = (decided_by(route, n, edges, k, i) for route in ("array", "python"))
        assert array[:4] == python[:4], name
        assert not python[4]
        walked[array[4]] += n > 1
        if name.startswith(("sparse 1000", "sparse 3000", "star 600")):
            assert array[4], name  # walked by levels to the end
        if name.startswith(("path 700", "cycle 1200", "ladder 700", "matching", "first component")):
            assert not array[4], name  # handed to the queue loop
    assert min(walked.values()) >= 5, walked


def components_past_the_first(rng):
    """(name, n, edges) of graphs past ``_ARRAY_WALK_EDGES`` edges whose
    components are all large, or isolated vertices, on shuffled labels."""
    def pieces(n, sizes):
        label = list(range(1, n + 1))
        rng.shuffle(label)
        edges, at = [], 0
        for size in sizes:
            part = label[at : at + size]
            tree = {(part[rng.randrange(i)], part[i]) for i in range(1, size)}
            while len(tree) < round(1.6 * size):
                u, v = rng.sample(part, 2)
                if (v, u) not in tree:
                    tree.add((u, v))
            edges += tree
            at += size
        return edges

    for isolated in (1, 2, 3):
        yield f"{isolated} isolated", 400 + isolated, pieces(400 + isolated, [400])
    yield "isolated vertex 1", 401, [(u + 1, v + 1) for u, v in pieces(400, [400])]
    yield "isolated vertex n", 401, pieces(400, [400])
    yield "two large", 700, pieces(700, [350, 350])
    yield "three large, two isolated", 902, pieces(902, [300, 250, 350])
    yield "four large", 1200, pieces(1200, [400, 200, 300, 300])


def test_components_past_the_first_stay_on_the_level_walk(rng):
    """The level walk finishes large later components and isolated vertices
    itself, without building ``csr``: its forest equals the queue walk's,
    its trees are networkx's components, and the array passes on it agree
    with the list passes on the queue walk's forest."""
    nx = pytest.importorskip("networkx")
    group = gs.GainGroup(6)
    for name, n, edges in components_past_the_first(rng):
        graph = gs.SimpleGraph(n, edges)
        assert graph.m >= gs.gaincore._ARRAY_WALK_EDGES, name
        f = gs.spanning_forest(graph)
        assert f._arrays is not None and graph._csr is None, name
        queued = gs.switching._queue_walk(graph, graph.csr)
        assert f == queued, name
        oracle = nx.Graph()
        oracle.add_nodes_from(range(1, n + 1))
        oracle.add_edges_from(edges)
        assert graph.components() == sorted(sorted(c) for c in nx.connected_components(oracle)), name
        a = gs.GainGraph(graph, group, [rng.randrange(6) for _ in range(graph.m)])
        assert gs.switching._normal_form(a, f) == gs.switching._normal_form(a, queued), name
        for got, want in zip(gs.switching._chord_use(graph, f), gs.switching._chord_use(graph, queued)):
            assert np.array_equal(got, want), name


def test_spanning_forest_disconnected_roots():
    graph = gs.SimpleGraph(5, [(1, 2), (4, 5)])
    f = gs.spanning_forest(graph)
    assert f.parent[1] == 0 and f.parent[3] == 0 and f.parent[4] == 0
    assert f.root[2] == 1 and f.root[5] == 4


def test_identity_vertex_order_gives_the_default_forest(rng):
    """The default forest skips the rank sort; it must match the sorted path."""
    for _ in range(40):
        a = random_connected_graph(rng, n_hi=7)
        b = random_connected_graph(rng, n_hi=6)
        for graph in (a, gs.SimpleGraph(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges])):
            assert gs.spanning_forest(graph) == gs.spanning_forest(graph, range(1, graph.n + 1))


def test_default_forest_is_built_once_per_graph(monkeypatch):
    built = []
    real = gs.switching.SpanningForest
    monkeypatch.setattr(gs.switching, "SpanningForest", lambda *fields: built.append(1) or real(*fields))
    graph = complete_graph(5)
    g = all_ones(graph)
    chord = graph.edge_id(2, 3)  # the forest is the star at 1
    h = gs.GainGraph(graph, G4, [int(e == chord) for e in range(graph.m)], True)
    assert gs.switching_equivalent(g, h) is None
    assert gs.first_profile_difference(g, h) is not None
    assert gs.is_balanced(g) and not gs.is_balanced(h)
    assert len(built) == 1
    assert gs.spanning_forest(graph) is gs.spanning_forest(graph)
    # a vertex order neither reads nor replaces the kept default forest
    ranked = gs.spanning_forest(graph, range(1, graph.n + 1))
    assert ranked == gs.spanning_forest(graph) and ranked is not gs.spanning_forest(graph)
    assert gs.spanning_forest(graph, [5, 4, 3, 2, 1]).root[1] == 5
    assert gs.spanning_forest(graph).root[1] == 1
    assert len(built) == 3


def counted_normal_forms(monkeypatch):
    """The (graph, forest) of each ``_normal_form`` pass from here on."""
    computed = []
    real = gs.switching._normal_form
    monkeypatch.setattr(gs.switching, "_normal_form", lambda g, f: computed.append((g, f)) or real(g, f))
    return computed


def chord_changed_pair(rng):
    """A mixed graph and, on an equal but distinct SimpleGraph, the same
    gains with one chord's changed: an inequivalent pair."""
    graph = random_connected_graph(rng, n_lo=6, n_hi=9, m_cap=14)
    while graph.m < graph.n:  # a tree: no chord to change
        graph = random_connected_graph(rng, n_lo=6, n_hi=9, m_cap=14)
    a = random_gains(rng, graph, mixed_mode=True)
    chord = gs.spanning_forest(graph).is_chord.index(True)
    arcs = [(u, v, (t + 1) % 4 if e == chord else t) for e, (u, v, t) in enumerate(zip(graph.tails, graph.heads, a.exps))]
    b = gs.build_gain_graph(graph.n, G4, arcs)
    assert b.graph == a.graph and b.graph is not a.graph
    return a, b


def test_a_decision_computes_one_normal_form_per_graph(monkeypatch):
    rng = random.Random(73)
    for _ in range(20):
        a, b = chord_changed_pair(rng)
        computed = counted_normal_forms(monkeypatch)
        assert gs.switching_equivalent(a, b) is None
        _, gain_a, gain_b = gs.first_profile_difference(a, b)
        assert gain_a != gain_b and gs.is_balanced(a) == (not any(gs.mixed_basis_profile(a)))
        # b is normalised on a's default forest, the one the decision walks
        assert computed == [(a, gs.spanning_forest(a.graph)), (b, gs.spanning_forest(a.graph))]
        assert type(a._normal[1][0]) is tuple


def test_one_graph_computes_its_normal_form_once(monkeypatch):
    rng = random.Random(79)
    for _ in range(20):
        g, _ = chord_changed_pair(rng)
        computed = counted_normal_forms(monkeypatch)
        character, balanced = gs.gain_character(g), gs.is_balanced(g)
        profile = gs.mixed_basis_profile(g)
        normal, theta = gs.normalize_to_forest(g)
        assert gs.class_size_by_blocks(g) >= 1
        assert any(gs.switching_equivalent(g, h) for h in gs.orbit_of_class(g))
        assert sum(h is g for h, _ in computed) == 1
        assert balanced == (character == gs.BALANCED) == (not any(profile))
        assert gs.apply_switching(g, theta) == normal


def test_another_forest_gets_its_own_normal_form(monkeypatch):
    rng = random.Random(83)
    for _ in range(20):
        a, b = chord_changed_pair(rng)
        order = list(range(1, a.graph.n + 1))
        rng.shuffle(order)
        ranked = gs.spanning_forest(a.graph, order)
        real = gs.switching._normal_form
        computed = counted_normal_forms(monkeypatch)
        balanced = gs.is_balanced(a)
        assert gs.switching_equivalent(a, b, forest=ranked) is None
        cycle, gain_a, gain_b = gs.first_profile_difference(a, b, forest=ranked)
        # the ranked forest's basis, not the default one's
        chords = [e for e in range(a.graph.m) if ranked.is_chord[e]]
        profiles = [real(g, ranked)[1] for g in (a, b)]
        j = next(j for j, (x, y) in enumerate(zip(*profiles)) if x != y)
        assert cycle == gs.fundamental_cycles(a.graph, ranked).cycles[j]
        assert (gain_a.exp, gain_b.exp) == (profiles[0][j], profiles[1][j])
        assert gs.walk_gain(a, cycle + cycle[:1]) == gain_a and gs.walk_gain(b, cycle + cycle[:1]) == gain_b
        normal, _ = gs.normalize_to_forest(a, ranked)
        assert not any(normal.exps[e] for e in range(a.graph.m) if e not in chords)
        assert gs.is_balanced(a) == balanced
        assert computed == [(a, a.graph._forest), (a, ranked), (b, ranked), (a, a.graph._forest)]


def test_vertex_order_changes_root():
    graph = cycle_graph(4)
    f = gs.spanning_forest(graph, vertex_order=[3, 4, 1, 2])
    assert f.parent[3] == 0
    with pytest.raises(ValidationError):
        gs.spanning_forest(graph, vertex_order=[1, 1, 2, 3])


def test_fundamental_cycles_chord_first():
    """Chord-first cycles, equal to the vertex-path construction, on default
    and re-ranked forests of graphs with any number of components."""
    rng = random.Random(13)
    several_components = 0
    for t in range(400):
        graph = random_graph(rng, n_hi=10, m_cap=16) if t % 4 else random_connected_graph(rng, n_hi=9)
        order = list(range(1, graph.n + 1))
        rng.shuffle(order)
        for f in (gs.spanning_forest(graph), gs.spanning_forest(graph, order)):
            basis = gs.fundamental_cycles(graph, f)
            assert basis.cycles == tree_path_cycles(graph, f)
            assert len(basis) == graph.m - graph.n + graph.num_components
            assert basis.chords == tuple(e for e in range(graph.m) if f.is_chord[e])
            for cycle, chord in zip(basis.cycles, basis.chords):
                u, v = graph.edges[chord]
                assert (cycle[0], cycle[1]) == (u, v)
                walk = list(cycle) + [cycle[0]]
                assert len(set(cycle)) == len(cycle)
                # only the chord is a non-forest edge (edge_id raises on a non-edge)
                ids = [graph.edge_id(a, b) for a, b in zip(walk, walk[1:])]
                assert [e for e in ids if f.is_chord[e]] == [chord]
        several_components += graph.num_components > 1
    assert several_components >= 100


def test_walk_and_cycle_gain_match_complex_oracle():
    rng = random.Random(17)
    for _ in range(25):
        graph = random_connected_graph(rng, n_hi=7)
        g = random_gains(rng, graph, k=rng.choice([2, 4, 6]))
        for cycle in oracle_cycles(graph):
            got = gs.cycle_gain(g, cycle)
            assert abs(got.value - oracle_cycle_gain(g, cycle)) < 1e-12


def test_walk_gain_validation():
    g = arc_triangle()
    assert gs.walk_gain(g, [1]).is_one()
    assert gs.walk_gain(g, [1, 2, 3, 1]) == gs.walk_gain(g, [1, 3, 2, 1]).conj()
    with pytest.raises(ValidationError):
        gs.walk_gain(g, [])


def test_apply_switching_preserves_all_cycle_gains(rng):
    for _ in range(40):
        graph = random_connected_graph(rng, n_hi=7)
        g = random_gains(rng, graph, k=rng.choice([2, 4, 5]))
        theta = random_switching(rng, g)
        h = gs.apply_switching(g, theta)
        assert h.graph == g.graph
        for cycle in oracle_cycles(graph):
            assert gs.cycle_gain(g, cycle) == gs.cycle_gain(h, cycle)


def test_apply_switching_identity_and_inverse(rng):
    for _ in range(20):
        graph = random_connected_graph(rng)
        g = random_gains(rng, graph, k=4, mixed_mode=True)
        assert gs.apply_switching(g, gs.SwitchingFunction.identity(G4, graph.n)) == g
        theta = random_switching(rng, g)
        back = gs.apply_switching(gs.apply_switching(g, theta), theta.conj())
        assert back.gains == g.gains


def test_apply_switching_recomputes_mixed_flag():
    g = mixed(2, [(1, 2, 0)])
    theta = gs.SwitchingFunction(G4, (2, 0))
    h = gs.apply_switching(g, theta)
    assert h.gain(1, 2).is_minus_one()
    assert not h.mixed_mode


def test_normalize_to_forest_clears_tree_edges(rng):
    for _ in range(30):
        graph = random_connected_graph(rng, n_hi=9)
        g = random_gains(rng, graph, k=rng.choice([2, 4, 7]))
        normalized, theta = gs.normalize_to_forest(g)
        assert gs.apply_switching(g, theta).gains == normalized.gains
        f = gs.spanning_forest(graph)
        basis = gs.fundamental_cycles(graph, f)
        for e in range(graph.m):
            if not f.is_chord[e]:
                assert normalized.gains[e].is_one()
        # the remaining chord gain is exactly the basis cycle gain
        profile = tuple(gs.cycle_gain(g, c) for c in basis.cycles)
        for chord, want in zip(basis.chords, profile):
            assert normalized.gains[chord] == want


def test_switching_equivalent_positive(rng):
    for _ in range(60):
        graph = random_connected_graph(rng, n_hi=8)
        g = random_gains(rng, graph, k=rng.choice([2, 4, 4, 6]))
        theta = random_switching(rng, g)
        h = gs.apply_switching(g, theta)
        witness = gs.switching_equivalent(g, h)
        assert witness is not None
        assert gs.apply_switching(g, witness) == gs.GainGraph(
            graph, g.group, h.gains, mixed_mode=gs.apply_switching(g, witness).mixed_mode
        )
        assert gs.apply_switching(g, witness).gains == h.gains


def test_switching_equivalent_ignores_the_mixed_flag():
    """Equivalence compares gains: a mixed graph and the same gains unflagged agree."""
    flagged = arc_triangle()
    plain = gs.GainGraph(flagged.graph, flagged.group, flagged.gains, mixed_mode=False)
    for a, b in ((flagged, plain), (plain, flagged)):
        witness = gs.switching_equivalent(a, b)
        assert witness is not None and witness.is_identity()
        assert gs.apply_switching(a, witness).gains == b.gains


def test_switching_equivalent_negative_on_chord_tweak(rng):
    for _ in range(40):
        graph = random_connected_graph(rng, n_hi=8)
        if graph.m == graph.n - graph.num_components:
            continue  # forest: single class, nothing to tweak
        g = random_gains(rng, graph, k=4)
        f = gs.spanning_forest(graph)
        basis = gs.fundamental_cycles(graph, f)
        chord = basis.chords[0]
        gains = list(g.gains)
        gains[chord] = gains[chord] * gs.GainExponent(G4, 1)
        h = gs.GainGraph(graph, G4, tuple(gains))
        assert gs.switching_equivalent(g, h) is None
        cycle, ga, gb = gs.first_profile_difference(g, h)
        assert ga != gb
        assert gs.cycle_gain(g, cycle) == ga
        assert gs.cycle_gain(h, cycle) == gb


def test_potential_decisions_match_fundamental_cycle_walks(rng):
    """Chord values from vertex potentials agree with walking every basis cycle.

    The reference is the cycle-walk route, written out here: the first
    fundamental cycle, in chord order, whose two gains differ.  Pairs cover
    k = 1..8 orders, disconnected graphs, and switched, switched-then-tweaked
    and unrelated gains.
    """

    def walked_difference(a, b, basis):
        for cyc in basis.cycles:
            ga, gb = gs.cycle_gain(a, cyc), gs.cycle_gain(b, cyc)
            if ga != gb:
                return cyc, ga, gb
        return None

    for _ in range(1200):
        n = rng.randint(1, 9)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        graph = gs.SimpleGraph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        k = rng.choice([1, 2, 3, 4, 6, 8])
        a = random_gains(rng, graph, k=k)
        b = gs.apply_switching(a, random_switching(rng, a))
        roll = rng.random()
        if roll < 0.4 and graph.m:
            gains = list(b.gains)
            gains[rng.randrange(graph.m)] = gs.GainExponent(a.group, rng.randrange(k))
            b = gs.GainGraph(graph, a.group, tuple(gains))
        elif roll < 0.6:
            b = random_gains(rng, graph, k=k)
        basis = gs.fundamental_cycles(graph, gs.spanning_forest(graph))
        want = walked_difference(a, b, basis)
        assert gs.first_profile_difference(a, b) == want
        assert (gs.switching_equivalent(a, b) is None) == (want is not None)
        profile = tuple(gs.cycle_gain(a, c) for c in basis.cycles)
        assert gs.mixed_basis_profile(a) == tuple(x.exp for x in profile)
        assert gs.is_balanced(a) == all(x.is_one() for x in profile)


def test_different_graph_sentinel():
    """Inputs on different graphs or groups raise; no falsy sentinel stands in for the error."""
    a = all_ones(path_graph(3))
    b = all_ones(gs.SimpleGraph(3, [(1, 2), (1, 3)]))
    undefined = "different underlying graph \\(or gain group\\); equivalence undefined"
    with pytest.raises(ValidationError, match=undefined):
        gs.switching_equivalent(a, b)
    c = gs.GainGraph(path_graph(3), gs.GainGroup(2), (gs.GainGroup(2).one,) * 2)
    with pytest.raises(ValidationError, match=undefined):
        gs.switching_equivalent(a, c)
    with pytest.raises(ValidationError):
        gs.first_profile_difference(a, b)


def test_verdict_is_forest_independent(rng):
    for _ in range(30):
        graph = random_connected_graph(rng, n_hi=8)
        g = random_gains(rng, graph, k=4)
        if rng.random() < 0.5:
            h = gs.apply_switching(g, random_switching(rng, g))
        else:
            h = random_gains(rng, graph, k=4)
        want = gs.switching_equivalent(g, h) is not None
        order = list(range(1, graph.n + 1))
        rng.shuffle(order)
        f2 = gs.spanning_forest(graph, vertex_order=order)
        assert (gs.switching_equivalent(g, h, forest=f2) is not None) == want


def test_witnesses_differ_by_component_constant(rng):
    for _ in range(40):
        graph = random_connected_graph(rng, n_hi=8)
        g = random_gains(rng, graph, k=rng.choice([2, 4, 6]))
        theta = random_switching(rng, g)
        h = gs.apply_switching(g, theta)
        witness = gs.switching_equivalent(g, h)
        diff = theta.mul(witness.conj())
        for comp in graph.components():
            consts = {diff(v) for v in comp}
            assert len(consts) == 1


def test_non_cut_edge_agreement_suffices(rng):
    # tweak g only on bridges; every cycle gain is unchanged, so equivalent
    for _ in range(40):
        graph = random_connected_graph(rng, n_hi=8)
        bridges = _bridges(graph)
        if not bridges:
            continue
        g = random_gains(rng, graph, k=4)
        gains = list(g.gains)
        for e in bridges:
            gains[e] = gs.GainExponent(G4, rng.randrange(4))
        h = gs.GainGraph(graph, G4, tuple(gains))
        assert gs.switching_equivalent(g, h) is not None


def _bridges(graph):
    ids = []
    for e, (u, v) in enumerate(graph.edges):
        pruned = [x for i, x in enumerate(graph.edges) if i != e]
        if gs.SimpleGraph(graph.n, pruned).num_components > graph.num_components:
            ids.append(e)
    return ids


def test_enumerate_cycles_counts():
    assert len(gs.enumerate_cycles(cycle_graph(5))) == 1
    assert len(gs.enumerate_cycles(complete_graph(4))) == 7
    bowtie = bowtie_minus().graph
    assert len(gs.enumerate_cycles(bowtie)) == 2
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert len(gs.enumerate_cycles(diamond)) == 3
    assert len(gs.enumerate_chordless_cycles(diamond)) == 2
    assert len(gs.enumerate_chordless_cycles(complete_graph(4))) == 4


def test_enumerate_cycles_order():
    k4 = complete_graph(4)
    assert gs.enumerate_cycles(k4) == [(1, 2, 3), (1, 2, 3, 4), (1, 2, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert gs.enumerate_chordless_cycles(k4) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert gs.enumerate_cycles(diamond) == [(1, 2, 3), (1, 2, 4, 3), (2, 3, 4)]
    assert gs.enumerate_chordless_cycles(diamond) == [(1, 2, 3), (2, 3, 4)]


def test_enumerate_cycles_matches_oracle(rng):
    for _ in range(20):
        graph = random_connected_graph(rng, n_hi=7)
        got = sorted(gs.enumerate_cycles(graph))
        want = sorted(oracle_cycles(graph))
        assert got == want


def test_enumerate_cycles_cap():
    with pytest.raises(InstanceTooLargeError):
        gs.enumerate_cycles(complete_graph(5), max_vertices=4)


def test_chordless_agreement_with_equivalence(rng):
    for _ in range(50):
        graph = random_connected_graph(rng, n_hi=7)
        g = random_gains(rng, graph, k=4)
        if rng.random() < 0.5:
            h = gs.apply_switching(g, random_switching(rng, g))
        else:
            h = random_gains(rng, graph, k=4)
        equivalent = gs.switching_equivalent(g, h) is not None
        assert gs.cycle_gains_equal_chordless(g, h) == equivalent


def test_chordless_rejects_different_graphs():
    with pytest.raises(ValidationError):
        gs.cycle_gains_equal_chordless(all_ones(path_graph(3)), all_ones(cycle_graph(3)))


def test_is_balanced(rng):
    assert gs.is_balanced(all_ones(complete_graph(4)))
    assert not gs.is_balanced(arc_triangle())
    for _ in range(20):
        graph = random_connected_graph(rng)
        g = all_ones(graph, k=4)
        h = gs.apply_switching(g, random_switching(rng, g))
        assert gs.is_balanced(h)


def test_gain_character_values():
    assert gs.gain_character(all_ones(cycle_graph(3))) == gs.BALANCED
    assert gs.gain_character(mixed(3, [(1, 2, 1), (2, 3, 1), (3, 1, 0)])) == gs.NEGATIVE
    assert gs.gain_character(arc_triangle()) == gs.IMAGINARY
    assert gs.gain_character(bowtie_minus()) == gs.MIXED_PROFILE
    # acyclic graphs are balanced vacuously
    assert gs.gain_character(mixed(3, [(1, 2, 1), (2, 3, 3)])) == gs.BALANCED


def test_gain_character_invariant_under_switching(rng):
    for _ in range(30):
        graph = random_connected_graph(rng, n_hi=7)
        g = random_gains(rng, graph, k=4)
        h = gs.apply_switching(g, random_switching(rng, g))
        assert gs.gain_character(g) == gs.gain_character(h)


def random_theta(rng):
    """Three internally disjoint paths between vertices 1 and 2, at most one
    of them a single edge, with the vertices relabelled at random."""
    n, edges = 2, []
    for j in range(3):
        inner = list(range(n + 1, n + 1 + rng.randint(1 if j else 0, 3)))
        n += len(inner)
        path = [1] + inner + [2]
        edges += zip(path, path[1:])
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return gs.SimpleGraph(n, sorted(tuple(sorted((label[u - 1], label[v - 1]))) for u, v in edges))


def test_gain_character_matches_cycle_enumeration():
    """The chord-based verdict against every cycle's gain, on 2400 graphs:
    thetas, cacti, cycles and random connected graphs."""
    rng = random.Random(1313)
    verdicts = {gs.BALANCED: 0, gs.NEGATIVE: 0, gs.IMAGINARY: 0, gs.MIXED_PROFILE: 0}
    for t in range(2400):
        if t % 4 == 0:
            graph = random_theta(rng)
        elif t % 4 == 1:
            graph = random_cactus(rng, m_cap=10)
        elif t % 4 == 2:
            graph = cycle_graph(rng.randint(3, 9))
        else:
            graph = random_connected_graph(rng, n_hi=9)
        k = rng.choice((1, 2, 3, 4, 4, 5, 6, 7, 8, 8))
        pools = [range(k), [0, k // 2], [0, k // 4, 3 * k // 4], [k // 2], [k // 4, 3 * k // 4]]
        pool = rng.choice(pools[: 5 if k % 4 == 0 else 2 if k % 2 == 0 else 1])
        group = gs.GainGroup(k)
        g = gs.GainGraph(graph, group, [gs.GainExponent(group, rng.choice(pool)) for _ in graph.edges])
        gains = [gs.cycle_gain(g, c) for c in gs.enumerate_cycles(graph)]
        if all(x.exp == 0 for x in gains):
            want = gs.BALANCED
        elif all(x.is_minus_one() for x in gains):
            want = gs.NEGATIVE
        elif all(x.is_imaginary_unit() for x in gains):
            want = gs.IMAGINARY
        else:
            want = gs.MIXED_PROFILE
        assert gs.gain_character(g) == want, (graph.edges, g.exps)
        verdicts[want] += 1
    assert min(verdicts.values()) >= 80, verdicts


def bfs_two_coloring(graph):
    """Sides of a breadth-first 2-coloring from each component's smallest
    vertex, neighbours in increasing order; None at the first clash."""
    color = [-1] * (graph.n + 1)
    for s in range(1, graph.n + 1):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        for v in queue:
            for w in graph.neighbors(v):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return (
        {v for v in range(1, graph.n + 1) if color[v] == 0},
        {v for v in range(1, graph.n + 1) if color[v] == 1},
    )


def test_bipartition():
    nx = pytest.importorskip("networkx")
    side = gs.bipartition(cycle_graph(4))
    assert side is not None
    u, v = set(side[0]), set(side[1])
    assert u | v == set(range(1, 5)) and not (u & v)
    assert gs.bipartition(cycle_graph(5)) is None
    assert gs.bipartition(path_graph(4)) is not None
    rng = random.Random(2002)
    bipartite = 0
    for t in range(600):
        graph = random_bipartite_graph(rng) if t % 2 else random_graph(rng, n_hi=10, m_cap=12)
        oracle = nx.Graph()
        oracle.add_nodes_from(range(1, graph.n + 1))
        oracle.add_edges_from(graph.edges)
        sides = gs.bipartition(graph)
        assert sides == bfs_two_coloring(graph)
        assert (sides is not None) == nx.is_bipartite(oracle)
        bipartite += sides is not None
    assert 200 <= bipartite <= 500


def test_negation_criterion(rng):
    assert gs.equivalent_to_negation(all_ones(cycle_graph(4)))
    assert not gs.equivalent_to_negation(arc_triangle())
    for _ in range(30):
        graph = random_connected_graph(rng, n_hi=8)
        g = random_gains(rng, graph, k=rng.choice([2, 4]))
        bipartite = gs.bipartition(graph) is not None
        assert gs.equivalent_to_negation(g) == bipartite
        direct = gs.switching_equivalent(g, gs.negate(g)) is not None
        assert direct == bipartite
        witness = gs.negation_witness(g)
        if bipartite:
            switched = gs.apply_switching(g, witness)
            assert switched.gains == gs.negate(g).gains
            side0, _ = bfs_two_coloring(graph)  # oracle: theta = 1 on side 0, -1 on side 1
            half = g.group.order // 2
            assert witness == gs.SwitchingFunction(g.group, [0 if v in side0 else half for v in range(1, graph.n + 1)])
        else:
            assert witness is None


def test_negation_witness_odd_group():
    g = gs.build_gain_graph(2, gs.GainGroup(3), [(1, 2, 1)])
    with pytest.raises(ValidationError):
        gs.negation_witness(g)


def square_face():
    return gs.parse_face_structure(all_ones(cycle_graph(4)), [(1, 2, 3, 4)])


# Every public enumeration cap, each given a non-integer: the cap is read
# before the enumeration or search it guards.
CAPPED = {
    "elementary": lambda cap: gs.enumerate_elementary(complete_graph(4), 2, cap),
    "char-poly": lambda cap: gs.char_poly_elementary(all_ones(complete_graph(4)), cap),
    "determinant": lambda cap: gs.determinant(all_ones(complete_graph(4)), cap),
    "cycles": lambda cap: gs.enumerate_cycles(cycle_graph(4), cap),
    "chordless-cycles": lambda cap: gs.enumerate_chordless_cycles(cycle_graph(4), cap),
    "cycle-gains-equal": lambda cap: gs.cycle_gains_equal_chordless(arc_triangle(), arc_triangle(), cap),
    "real-gain-sums": lambda cap: gs.cycle_real_gain_sums(arc_triangle(), cap),
    "census": lambda cap: gs.brute_force_census(cycle_graph(4), cap),
    "automorphisms": lambda cap: gs.automorphisms(cycle_graph(4), cap),
    "aut-decomposition": lambda cap: gs.mixed_aut_decomposition(arc_triangle(), cap),
    "switching-isomorphic": lambda cap: gs.switching_isomorphic(arc_triangle(), arc_triangle(), cap),
    "orbit-vertices": lambda cap: gs.orbit_of_class(arc_triangle(), max_vertices=cap),
    "orbit-edges": lambda cap: gs.orbit_of_class(arc_triangle(), max_edges=cap),
    "underlying-isomorphism": lambda cap: gs.underlying_isomorphism(cycle_graph(4), cycle_graph(4), cap),
}
BAD_CAPS = {"none": None, "str": "x", "float": 1.5, "bool": True, "list": []}


@pytest.mark.parametrize(
    "call",
    [
        lambda: gs.cycle_gain(arc_triangle(), []),
        lambda: gs.enumerate_gamma(square_face(), ()),
        lambda: gs.enumerate_gamma(square_face(), (0,)),
        lambda: gs.cycle_class_size(4, 0),
        lambda: gs.SwitchingFunction.identity(gs.GainGroup(4), 0).mul(gs.SwitchingFunction.identity(gs.GainGroup(8), 0)),
        lambda: gs.apply_switching(gs.GainGraph(gs.SimpleGraph(0, []), gs.GainGroup(8), ()),
                                   gs.negation_witness(all_ones(gs.SimpleGraph(0, [])))),
        lambda: gs.spanning_forest(cycle_graph(3), [1, "a", 3]),
        lambda: gs.walk_gain(arc_triangle(), [1, "x"]),
        lambda: cycle_graph(3).has_edge(1, "x"),
        lambda: gs.GainGroup(4.0),
        lambda: gs.build_gain_graph(3, gs.GainGroup(4.0), [(1, 2, 1), (2, 3, 0)]),
        lambda: gs.GainGroup("4"),
        lambda: gs.GainGroup(True),
        lambda: gs.VertexPermutation((1.0, 2)),
        lambda: gs.VertexPermutation((True, 2)),
        lambda: gs.VertexPermutation((1, 1)),
        lambda: gs.VertexPermutation(2),
        lambda: gs.enumerate_elementary(complete_graph(4), 1.5),
        lambda: gs.enumerate_elementary(complete_graph(4), True),
    ]
    + [lambda call=call, cap=cap: call(cap) for call in CAPPED.values() for cap in BAD_CAPS.values()],
    ids=["empty-cycle", "no-face-gains", "int-face-gain", "int-cycle-gain", "empty-theta-group",
         "empty-negation-witness-group", "str-in-vertex-order", "str-in-walk", "str-in-has-edge",
         "float-group-order", "float-group-order-build", "str-group-order", "bool-group-order", "float-in-permutation",
         "bool-in-permutation", "repeat-in-permutation", "int-permutation", "float-elementary-order",
         "bool-elementary-order"]
    + [f"{kind}-{name}-cap" for name in CAPPED for kind in BAD_CAPS],
)
def test_malformed_arguments_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_numpy_int_caps_read_as_ints():
    """A numpy-int cap refuses as its int does, with the same message."""
    for name, call in CAPPED.items():
        messages = []
        for cap in (2, np.int64(2)):
            with pytest.raises(InstanceTooLargeError) as raised:
                call(cap)
            messages.append(str(raised.value))
        assert messages[0] == messages[1] and "capped at 2 " in messages[0], name


def test_integer_likes_become_ints():
    order = gs.GainGroup(np.int64(4)).order
    image = gs.VertexPermutation([np.int32(2), 1]).image
    assert type(order) is int and order == 4
    assert image == (2, 1) and all(type(w) is int for w in image)


def test_empty_theta_keeps_its_group():
    empty = all_ones(gs.SimpleGraph(0, []))
    theta = gs.SwitchingFunction.identity(G4, 0)
    assert theta.group == G4 and theta.n == 0 and theta  # truthy: a witness on no vertices
    assert gs.negation_witness(empty) == gs.switching_equivalent(empty, empty) == theta
    assert gs.apply_switching(empty, theta) == empty
    with pytest.raises(ValidationError):
        gs.apply_switching(gs.GainGraph(empty.graph, gs.GainGroup(8), ()), theta)
