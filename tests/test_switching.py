"""Spanning forests, cycle bases, switching, and the equivalence decision.

Claims covered:
    - forests span every vertex with one root per component, acyclically;
      the default forest equals the one for the identity vertex order
    - the fundamental basis has m - n + c chord-first cycles
    - switching preserves every cycle gain; witnesses verify exactly, and
      the equivalence verdict ignores the mixed flag
    - verdicts are forest-independent and chordless-agreement holds
    - two witnesses differ by one constant per connected component
    - agreement on every non-cut edge is sufficient for equivalence
    - balance, gain character (against every cycle's gain, thetas included),
      and the bipartite negation criterion
"""

import itertools
import random

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
    random_gains,
    random_switching,
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
        assert len(f.forest_edges) == graph.n - graph.num_components
        for v in range(1, graph.n + 1):
            p = f.parent[v]
            if p:
                assert graph.has_edge(v, p)
                assert f.depth[v] == f.depth[p] + 1
            else:
                assert f.depth[v] == 0
        assert sorted(f.bfs_order) == list(range(1, graph.n + 1))


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
    h = gs.GainGraph._from_exps(graph, G4, [int(e == chord) for e in range(graph.m)], True)
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


def test_vertex_order_changes_root():
    graph = cycle_graph(4)
    f = gs.spanning_forest(graph, vertex_order=[3, 4, 1, 2])
    assert f.parent[3] == 0
    with pytest.raises(ValidationError):
        gs.spanning_forest(graph, vertex_order=[1, 1, 2, 3])


def test_fundamental_cycles_chord_first():
    rng = random.Random(13)
    for _ in range(30):
        graph = random_connected_graph(rng, n_hi=9)
        f = gs.spanning_forest(graph)
        basis = gs.fundamental_cycles(graph, f)
        assert len(basis) == graph.m - graph.n + graph.num_components
        seen_chords = set()
        for cycle, chord in zip(basis.cycles, basis.chords):
            u, v = graph.edges[chord]
            assert (cycle[0], cycle[1]) == (u, v)
            assert chord not in seen_chords
            seen_chords.add(chord)
            walk = list(cycle) + [cycle[0]]
            for a, b in zip(walk, walk[1:]):
                assert graph.has_edge(a, b)
            assert len(set(cycle)) == len(cycle)
            # only the chord is a non-forest edge
            ids = [graph.edge_id(a, b) for a, b in zip(walk, walk[1:])]
            assert [e for e in ids if e not in f.forest_edges] == [chord]


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
    theta = gs.SwitchingFunction((gs.GainExponent(G4, 2), gs.GainExponent(G4, 0)))
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
        for e in f.forest_edges:
            assert normalized.gain_by_id(e).is_one()
        # the remaining chord gain is exactly the basis cycle gain
        profile = gs.basis_gain_profile(g, basis)
        for chord, want in zip(basis.chords, profile):
            assert normalized.gain_by_id(chord) == want


def test_switching_equivalent_positive(rng):
    for _ in range(60):
        graph = random_connected_graph(rng, n_hi=8)
        g = random_gains(rng, graph, k=rng.choice([2, 4, 4, 6]))
        theta = random_switching(rng, g)
        h = gs.apply_switching(g, theta)
        witness = gs.switching_equivalent(g, h)
        assert witness is not None and witness is not gs.DIFFERENT_GRAPH
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
        _, basis = gs.canonical_basis(graph)
        want = walked_difference(a, b, basis)
        assert gs.first_profile_difference(a, b) == want
        assert (gs.switching_equivalent(a, b) is None) == (want is not None)
        profile = gs.basis_gain_profile(a, basis)
        assert gs.mixed_basis_profile(a) == tuple(x.exp for x in profile)
        assert gs.is_balanced(a) == all(x.is_one() for x in profile)


def test_different_graph_sentinel():
    a = all_ones(path_graph(3))
    b = all_ones(gs.SimpleGraph(3, [(1, 2), (1, 3)]))
    verdict = gs.switching_equivalent(a, b)
    assert verdict is gs.DIFFERENT_GRAPH
    assert not verdict
    c = gs.GainGraph(path_graph(3), gs.GainGroup(2), (gs.GainGroup(2).one,) * 2)
    assert gs.switching_equivalent(a, c) is gs.DIFFERENT_GRAPH
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


def test_bipartition():
    side = gs.bipartition(cycle_graph(4))
    assert side is not None
    u, v = set(side[0]), set(side[1])
    assert u | v == set(range(1, 5)) and not (u & v)
    assert gs.bipartition(cycle_graph(5)) is None
    assert gs.bipartition(path_graph(4)) is not None


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
        else:
            assert witness is None


def test_negation_witness_odd_group():
    g = gs.build_gain_graph(2, gs.GainGroup(3), [(1, 2, 1)])
    with pytest.raises(ValidationError):
        gs.negation_witness(g)
