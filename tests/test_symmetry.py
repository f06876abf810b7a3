"""Automorphisms, their action on gain graphs, and switching isomorphism.

Claims covered here:
  * the backtracking automorphism search returns exactly the edge-preserving
    permutations (checked against an all-permutations oracle up to n = 6);
  * gain automorphisms are the gain-preserving subgroup, and for mixed
    graphs they are the intersection of the groups of the directed and the
    undirected parts; the identities are checked on chains, and a chain of
    either part or of the gain graph that loses a generator trips them;
  * the chain of the meet of two graphs' search tables has the generators of
    the set intersection of their listed groups, in order, on 210 seeded
    mixed graphs (n 0-8: no arcs, only arcs, disconnected, isolated vertices);
  * the gain-pruned search lists gain automorphisms in the order of a
    gain-checking filter over itertools.permutations, and decides and counts
    gain isomorphisms as networkx's DiGraphMatcher does, on 210 seeded gain
    graphs with n 0-8 and k 1-8;
  * act is a group action on gain graphs and descends to switching classes:
    its Hermitian matrix is the conjugated one, and equivalent inputs stay
    equivalent;
  * orbit_of_class's BFS over the chain's generators finds the classes of
    act(f, g) over every automorphism f, for k 2/3/4/6;
  * switching isomorphism holds exactly when the classes share an orbit,
    with the two cospectral bowtie orientations as the negative witness;
  * the one switching-isomorphism search returns the (f, theta) of the walk
    over every automorphism, or None with it, on 1050 seeded pairs (n 0-8,
    k 1-8), and it does not branch over theta; grouping every signing of
    K_n by it gives the two-graph counts 1, 1, 2, 3, 7 for n = 1..5;
  * underlying_isomorphism aligns relabeled graphs and rejects impostors;
  * the bitmask backtracker lists automorphisms in the lexicographic order
    of a filter over itertools.permutations, and finds the lexicographically
    first isomorphism, on 200+ seeded graphs with n 0-8;
  * the chain's generators are those of a greedy frontier closure over the
    listed elements, and each is new when it joins;
  * the stabiliser chain built from first-solution searches has the listed
    group's order and the frontier closure's generators, in order, on 524 seeded
    simple and gain graphs with n 0-9 and k 1-8; membership, decided by
    sifting through it, agrees with the listed elements; and its orders
    match networkx's GraphMatcher counts for the Petersen graph, K3,3 and
    the cube;
  * an AutGroup answers order and membership without listing its elements
    (S10), and mixed_aut_decomposition returns its verified chains unlisted.
"""

import functools
import itertools
import math
import random
import types

import numpy as np
import pytest

import gainswitch as gs
from gainswitch import switching, symmetry
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
    random_connected_graph,
    random_gains,
    random_switching,
)


def oracle_automorphisms(graph):
    """Images of all edge-preserving permutations, by full enumeration."""
    out = set()
    verts = range(1, graph.n + 1)
    for img in itertools.permutations(verts):
        f = dict(zip(verts, img))
        if all(graph.has_edge(f[u], f[v]) for u, v in graph.edges):
            out.add(img)
    return out


def oracle_profile(g):
    """Basis gain exponents via raw complex products along each chord cycle."""
    basis = gs.fundamental_cycles(g.graph, gs.spanning_forest(g.graph))
    quarter = (1 + 0j, 1j, -1 + 0j, -1j)
    profile = []
    for cyc in basis.cycles:
        closed = list(cyc) + [cyc[0]]
        z = 1 + 0j
        for a, b in zip(closed, closed[1:]):
            z *= g.gain(a, b).value
        profile.append(min(range(4), key=lambda t: abs(z - quarter[t])))
    return tuple(profile)


def permutation_matrix(f):
    p = np.zeros((f.n, f.n))
    for u in range(1, f.n + 1):
        p[u - 1, f(u) - 1] = 1.0
    return p


# -- permutations ------------------------------------------------------------


def test_vertex_permutation_basics():
    f = gs.VertexPermutation((2, 3, 1))
    assert f(1) == 2 and f(2) == 3 and f(3) == 1
    assert f.n == 3
    assert not f.is_identity()
    assert gs.VertexPermutation.identity(3).is_identity()
    assert f.compose(f.inverse()).is_identity()
    assert f.inverse().compose(f).is_identity()
    g = gs.VertexPermutation((1, 3, 2))
    # compose is v -> f(g(v))
    assert f.compose(g).image == tuple(f(g(v)) for v in (1, 2, 3))
    with pytest.raises(gs.ValidationError):
        gs.VertexPermutation((1, 1, 3))
    with pytest.raises(gs.ValidationError):
        f.compose(gs.VertexPermutation.identity(4))


def test_aut_group_is_a_group():
    for graph in [cycle_graph(4), path_graph(4), complete_graph(4)]:
        aut = gs.automorphisms(graph)
        elems = set(aut.elements)
        assert gs.VertexPermutation.identity(graph.n) in aut
        for f in aut:
            assert f.inverse() in elems
            for h in aut:
                assert f.compose(h) in elems


# -- automorphism search -----------------------------------------------------


def test_automorphism_counts():
    assert gs.automorphisms(path_graph(2)).order == 2
    assert gs.automorphisms(path_graph(3)).order == 2
    assert gs.automorphisms(cycle_graph(3)).order == 6
    assert gs.automorphisms(cycle_graph(5)).order == 10
    assert gs.automorphisms(complete_graph(4)).order == 24
    assert gs.automorphisms(bowtie_minus().graph).order == 8


def test_automorphisms_match_oracle(rng):
    diamond = gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    graphs = [path_graph(4), diamond, bowtie_minus().graph]
    graphs += [random_connected_graph(rng, n_lo=3, n_hi=6) for _ in range(5)]
    for graph in graphs:
        got = {f.image for f in gs.automorphisms(graph)}
        assert got == oracle_automorphisms(graph)


def test_isomorphism_search_matches_networkx(rng):
    """VF2 decides isomorphism of equal-degree pairs and counts automorphisms."""
    nx = pytest.importorskip("networkx")
    for _ in range(120):
        n = rng.randint(1, 8)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        a = gs.SimpleGraph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        oracle_a = nx.Graph(a.edges)
        oracle_a.add_nodes_from(range(1, n + 1))
        oracle_b = oracle_a.copy()
        try:  # degree-preserving rewiring; often not isomorphic any more
            swaps, seed = rng.randint(1, 3), rng.randrange(2**32)
            nx.double_edge_swap(oracle_b, nswap=swaps, max_tries=50, seed=seed)
        except nx.NetworkXException:
            pass
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        b = gs.SimpleGraph(n, [(labels[u - 1], labels[v - 1]) for u, v in oracle_b.edges])
        f = gs.underlying_isomorphism(a, b)
        assert (f is not None) == nx.is_isomorphic(oracle_a, oracle_b)
        if f is not None:
            assert all(b.has_edge(f(u), f(v)) for u, v in a.edges)
        if n <= 6:  # VF2 lists every automorphism; beyond n = 6 that takes seconds
            vf2 = nx.algorithms.isomorphism.GraphMatcher(oracle_a, oracle_a)
            assert gs.automorphisms(a).order == sum(1 for _ in vf2.isomorphisms_iter())


def test_automorphism_cap():
    with pytest.raises(gs.InstanceTooLargeError):
        gs.automorphisms(path_graph(11))
    assert gs.automorphisms(path_graph(11), max_vertices=11).order == 2


def prism_graph(k):
    rims = [(i, i % k + 1) for i in range(1, k + 1)]
    return gs.SimpleGraph(2 * k, rims + [(u + k, v + k) for u, v in rims] + [(i, i + k) for i in range(1, k + 1)])


def wheel_graph(k):
    return gs.SimpleGraph(k + 1, [(i, i % k + 1) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)])


@functools.cache
def seeded_graphs():
    """Empty, complete, disconnected, isolated-vertex and random graphs, n 0-8."""
    rng = random.Random(7100)
    graphs = [gs.SimpleGraph(n, []) for n in range(9)]
    graphs += [complete_graph(n) for n in range(1, 9)]
    graphs += [
        gs.SimpleGraph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]),  # two triangles
        gs.SimpleGraph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),  # K4 and an isolated vertex
        gs.SimpleGraph(7, [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6)]),  # C5 and two isolated vertices
        gs.SimpleGraph(8, [(1, 2), (2, 3), (5, 6), (6, 7), (7, 8), (5, 8)]),  # P3, C4, an isolated vertex
    ]
    while len(graphs) < 210:
        n = rng.choice((1, 2, 3, 4, 5, 5, 6, 6, 6, 7, 7, 8))
        p = rng.random()
        pairs = itertools.combinations(range(1, n + 1), 2)
        graphs.append(gs.SimpleGraph(n, [e for e in pairs if rng.random() < p]))
    return graphs


def isomorphisms_by_permutations(a, b):
    """Yield every isomorphism a -> b as an image tuple, in itertools.permutations order."""
    if a.n == b.n and a.m == b.m:
        for img in itertools.permutations(range(1, a.n + 1)):
            if all(b.has_edge(img[u - 1], img[v - 1]) for u, v in a.edges):
                yield img


def test_automorphism_order_matches_a_permutation_filter():
    for graph in seeded_graphs():
        got = [f.image for f in gs.automorphisms(graph).elements]
        assert got == sorted(isomorphisms_by_permutations(graph, graph))


def test_underlying_isomorphism_is_the_lexicographically_first():
    rng = random.Random(7101)
    verdicts = []
    for a in seeded_graphs():
        labels = list(range(1, a.n + 1))
        rng.shuffle(labels)
        relabeled = gs.SimpleGraph(a.n, [(labels[u - 1], labels[v - 1]) for u, v in a.edges])
        pairs = list(itertools.combinations(range(1, a.n + 1), 2))
        same_size = gs.SimpleGraph(a.n, rng.sample(pairs, a.m))  # often not isomorphic
        for b in (relabeled, same_size):
            f = gs.underlying_isomorphism(a, b)
            first = next(isomorphisms_by_permutations(a, b), None)
            assert (f.image if f is not None else None) == first
            verdicts.append(first is not None)
    assert verdicts.count(False) >= 50  # the negative branch is exercised too


def frontier_generating_set(group):
    """Greedy generators of a listed group: each element outside the closure
    so far joins them, and a frontier over every element grows the closure."""
    closure = {tuple(range(1, group.n + 1))}
    gens = []
    for f in group.elements:
        if f.image in closure:
            continue
        gens.append(f.image)
        closure.add(f.image)
        frontier = list(closure)
        while frontier:
            h = frontier.pop()
            for gen in gens:
                c = tuple(gen[w - 1] for w in h)
                if c not in closure:
                    closure.add(c)
                    frontier.append(c)
    return gens


def test_coset_closure_picks_the_frontier_closure_generators():
    named = [complete_graph(n) for n in (5, 6, 7)]
    named += [prism_graph(k) for k in (3, 4, 5)]  # prism 4 is the cube
    named += [wheel_graph(k) for k in (4, 6, 9)]
    for graph in named + seeded_graphs():
        aut = gs.automorphisms(graph)
        assert [f.image for f in aut.generators] == frontier_generating_set(aut)


def test_aut_group_membership():
    aut = gs.automorphisms(complete_graph(4))
    assert gs.VertexPermutation((2, 1, 3, 4)) in aut
    assert gs.VertexPermutation((1, 2, 3, 4)) in aut
    assert gs.VertexPermutation((1, 2, 3, 4, 5)) not in aut
    assert gs.VertexPermutation((2, 1, 3)) not in gs.automorphisms(path_graph(3))


def test_order_and_membership_list_no_elements():
    # S10 has 3628800 elements; the chain answers without listing one of them
    group = gs.automorphisms(complete_graph(10))
    assert group.order == 3628800
    assert gs.VertexPermutation((2, 3, 4, 5, 6, 7, 8, 9, 10, 1)) in group
    assert gs.VertexPermutation.identity(9) not in group
    path = gs.automorphisms(path_graph(10))
    assert path.order == 2 and gs.VertexPermutation((2, 1, *range(3, 11))) not in path
    assert "elements" not in vars(group) and "elements" not in vars(path)


def test_generating_set_generates_the_group(rng):
    graphs = [path_graph(1), cycle_graph(5), complete_graph(5), bowtie_minus().graph]
    graphs += [random_connected_graph(rng, n_lo=3, n_hi=7) for _ in range(4)]
    for graph in graphs:
        aut = gs.automorphisms(graph)
        gens = aut.generators
        closure = {gs.VertexPermutation.identity(graph.n)}
        for gen in gens:
            assert gen not in closure  # each generator is new when it joins
            frontier = [gen]
            closure.add(gen)
            while frontier:
                h = frontier.pop()
                for x in list(closure):
                    for c in (h.compose(x), x.compose(h)):
                        if c not in closure:
                            closure.add(c)
                            frontier.append(c)
        assert closure == set(aut.elements)


# -- gain automorphisms ------------------------------------------------------


def test_automorphisms_of_gain_graphs_known():
    assert gs.automorphisms(all_ones(cycle_graph(3))).order == 6
    assert gs.automorphisms(arc_triangle()).order == 1
    assert gs.automorphisms(bowtie_minus()).order == 1
    rotor = mixed(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])  # directed 3-cycle, all gain i
    assert gs.automorphisms(rotor).order == 3


def test_automorphisms_of_gain_graphs_match_oracle(rng):
    for _ in range(5):
        graph = random_connected_graph(rng, n_lo=3, n_hi=6)
        g = random_gains(rng, graph, mixed_mode=True)
        want = set()
        verts = range(1, graph.n + 1)
        for img in oracle_automorphisms(graph):
            f = dict(zip(verts, img))
            if all(
                abs(g.gain(f[u], f[v]).value - g.gain(u, v).value) < 1e-12
                for u, v in graph.edges
            ):
                want.add(img)
        assert {f.image for f in gs.automorphisms(g)} == want


def seeded_gain_graph(rng, graph):
    """Gains on graph: k 1-8, mixed or not, from a pool of 1-3 exponents so
    that gain automorphism groups stay nontrivial."""
    if rng.random() < 0.3:
        k, pool, mixed_mode = 4, gs.MIXED_EXPONENTS, True
    else:
        k, mixed_mode = rng.randint(1, 8), False
        pool = range(k)
    pool = rng.sample(list(pool), min(len(pool), rng.randint(1, 3)))
    exps = [rng.choice(pool) for _ in range(graph.m)]
    return gs.GainGraph(graph, gs.GainGroup(k), exps, mixed_mode)


def gain_isomorphisms_by_permutations(a, b):
    """Yield every gain isomorphism a -> b as an image tuple, in itertools.permutations order."""
    if a.graph.n == b.graph.n and a.graph.m == b.graph.m:
        arcs = list(zip(a.graph.edges, a.exps))
        for img in itertools.permutations(range(1, a.graph.n + 1)):
            if all(
                b.graph.has_edge(img[u - 1], img[v - 1]) and b.exponent(img[u - 1], img[v - 1]) == t
                for (u, v), t in arcs
            ):
                yield img


def test_automorphisms_of_gain_graphs_match_a_permutation_filter():
    rng = random.Random(7102)
    orders = []
    for graph in seeded_graphs():
        g = seeded_gain_graph(rng, graph)
        got = [f.image for f in gs.automorphisms(g).elements]
        assert got == list(gain_isomorphisms_by_permutations(g, g))
        orders.append(len(got))
    assert sum(order > 1 for order in orders) >= 100  # nontrivial groups are common


def test_gain_isomorphism_search_matches_networkx():
    """DiGraphMatcher on both orientations of each edge, matched on exponents."""
    nx = pytest.importorskip("networkx")
    iso = nx.algorithms.isomorphism
    rng = random.Random(7103)

    def digraph(g):
        d = nx.DiGraph()
        d.add_nodes_from(range(1, g.graph.n + 1))
        k = g.group.order
        for (u, v), t in zip(g.graph.edges, g.exps):
            d.add_edge(u, v, t=t)
            d.add_edge(v, u, t=-t % k)
        return d

    verdicts = []
    for graph in seeded_graphs():
        a = seeded_gain_graph(rng, graph)
        labels = list(range(1, graph.n + 1))
        rng.shuffle(labels)
        exps = list(a.exps)
        k = a.group.order
        if exps and k > 1 and rng.random() < 0.5:  # one gain changed: often not isomorphic
            e = rng.randrange(len(exps))
            pool = gs.MIXED_EXPONENTS if a.mixed_mode else range(k)
            exps[e] = rng.choice([t for t in pool if t != exps[e]])
        arcs = [(labels[u - 1], labels[v - 1], t) for (u, v), t in zip(graph.edges, exps)]
        b = gs.build_gain_graph(graph.n, a.group, arcs, mixed_mode=a.mixed_mode)
        matcher = iso.DiGraphMatcher(digraph(a), digraph(b), edge_match=lambda x, y: x["t"] == y["t"])
        found = list(symmetry._search(symmetry._tables(a, b, symmetry.DEFAULT_AUT_CAP, "isomorphism")))
        assert bool(found) == matcher.is_isomorphic()
        for f in found:
            assert all(b.exponent(f(u), f(v)) == t for (u, v), t in zip(a.graph.edges, a.exps))
        if graph.n <= 6:
            assert len(found) == sum(1 for _ in matcher.isomorphisms_iter())
        verdicts.append(bool(found))
    assert verdicts.count(False) >= 30 and verdicts.count(True) >= 100


# -- the stabiliser chain ----------------------------------------------------


def petersen_graph():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return gs.SimpleGraph(10, outer + inner + [(i, i + 5) for i in range(1, 6)])


def complete_bipartite_graph(a, b):
    return gs.SimpleGraph(a + b, [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)])


@functools.cache
def chain_graphs():
    """Simple graphs and gain graphs (k 1-8) on them, n 0-9: the seeded graphs,
    rigid ones, cycles, complete graphs, the cube, and seeded graphs on 9 vertices."""
    rng = random.Random(7103)
    named = [
        gs.SimpleGraph(7, [(1, 2), (1, 3), (3, 4), (1, 5), (5, 6), (6, 7)]),  # rigid tree
        gs.SimpleGraph(9, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 4), (8, 9)]),  # P3, C3, K2, isolated 7
        prism_graph(4),  # the cube
        complete_bipartite_graph(3, 3),
        wheel_graph(8),
    ]
    named += [cycle_graph(n) for n in range(3, 10)]  # the seeded graphs hold K1-K8
    for _ in range(40):
        pairs = itertools.combinations(range(1, 10), 2)
        p = rng.choice((0.2, 0.5, 0.8))
        named.append(gs.SimpleGraph(9, [e for e in pairs if rng.random() < p]))
    graphs = named + seeded_graphs()
    return graphs + [seeded_gain_graph(rng, graph) for graph in graphs]


def listed_group(g):
    return gs.automorphisms(g)


def aut_tables(g):
    return symmetry._tables(g, g, symmetry.DEFAULT_AUT_CAP, "automorphism")


def chain_of(g):
    return symmetry._automorphism_chain(aut_tables(g))


def test_chain_order_and_generators_match_the_listed_group():
    orders = []
    for g in chain_graphs():
        listed = listed_group(g)
        chain = chain_of(g)
        assert chain.order == len(listed.elements)
        assert [f.image for f in chain.generators] == frontier_generating_set(listed)
        orders.append(listed.order)
    assert orders.count(1) >= 40 and sum(order >= 24 for order in orders) >= 40
    assert chain_of(chain_graphs()[0]).order == 1  # the rigid tree


def test_sifting_agrees_with_group_membership():
    rng = random.Random(7104)
    hits = 0
    for g in chain_graphs():
        listed = listed_group(g)
        chain = chain_of(g)
        n = listed.n
        elements = {f.image for f in listed.elements}
        if n <= 6:
            images = itertools.permutations(range(1, n + 1))
        else:  # random permutations, and each element with two points swapped
            images = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(40)]
            for f in listed.elements[:200]:
                img = list(f.image)
                i, j = rng.sample(range(n), 2)
                img[i], img[j] = img[j], img[i]
                images += [f.image, tuple(img)]
        for img in images:
            member = img in elements
            assert (gs.VertexPermutation(img) in chain) == member
            hits += member
    assert hits >= 10000


def test_chain_orders_match_networkx():
    nx = pytest.importorskip("networkx")
    for graph, order in ((petersen_graph(), 120), (complete_bipartite_graph(3, 3), 72), (prism_graph(4), 48)):
        vf2 = nx.algorithms.isomorphism.GraphMatcher(nx.Graph(graph.edges), nx.Graph(graph.edges))
        assert chain_of(graph).order == sum(1 for _ in vf2.isomorphisms_iter()) == order


def test_mixed_aut_decomposition_star():
    g = mixed(4, [(1, 2, 1), (1, 3, 0), (1, 4, 0)])
    aut_g, aut_s, aut_u = gs.mixed_aut_decomposition(g)
    assert aut_g.order == 6  # leaves permute freely
    assert aut_s.order == 2  # the arc is rigid; 3 and 4 may swap
    assert aut_u.order == 2
    assert gs.automorphisms(g).order == 2


def test_mixed_aut_decomposition_all_undirected():
    g = all_ones(cycle_graph(4))
    aut_g, aut_s, aut_u = gs.mixed_aut_decomposition(g)
    assert aut_g.order == aut_u.order == 8
    assert aut_s.order == math.factorial(4)  # empty directed part
    with pytest.raises(gs.ValidationError):
        gs.mixed_aut_decomposition(all_ones(cycle_graph(4), mixed_mode=False))


def test_mixed_aut_decomposition_searches_four_graphs(monkeypatch):
    # an arc 1 -> 2 and undirected edges 1-3, 1-4: swapping 3 and 4 preserves every gain
    g = mixed(4, [(1, 2, 1), (1, 3, 0), (1, 4, 0)])
    directed = mixed(4, [(1, 2, 1)])
    undirected = gs.SimpleGraph(4, [(1, 3), (1, 4)])
    built = []
    build = symmetry._tables

    def recording(a, b, *rest):
        built.append((a, build(a, b, *rest)))
        return built[-1][1]

    tested = []
    monkeypatch.setattr(symmetry, "_tables", recording)
    monkeypatch.setattr(symmetry, "_moved_exps", lambda f, h: tested.append(f) or iter(()))
    aut_g, aut_s, aut_u = gs.mixed_aut_decomposition(g)
    assert (aut_g.order, aut_s.order, aut_u.order) == (6, 2, 2)
    # the identities build the tables of the underlying graph, the directed
    # part, the undirected part and g itself, once each, and the first three
    # chains are returned unlisted.  No automorphism is tested for gains.
    assert [a for a, _ in built] == [g.graph, directed, undirected, g]
    assert not any("elements" in vars(group) for group in (aut_g, aut_s, aut_u))
    assert tested == []
    search = symmetry._search

    # a chain that loses its generator trips the identities: the undirected
    # part's and the directed part's no longer hold g's generator (3 4), and
    # g's own no longer matches the chains of the two meets
    for lost in (undirected, directed, g):
        built.clear()

        def losing(tables, *rest):
            return iter(()) if any(tables is t for a, t in built if a == lost) else search(tables, *rest)

        monkeypatch.setattr(symmetry, "_search", losing)
        with pytest.raises(AssertionError, match="intersection identities"):
            gs.mixed_aut_decomposition(g)


def seeded_mixed_graphs():
    """Mixed graphs on the seeded graphs (n 0-8): no arcs, only arcs, and arcs at random."""
    rng = random.Random(7105)
    graphs = []
    for graph, mode in zip(seeded_graphs(), itertools.cycle(("none", "all", "some", "some"))):
        pool = {"none": (0,), "all": (1, 3), "some": gs.MIXED_EXPONENTS}[mode]
        exps = [rng.choice(pool) for _ in range(graph.m)]
        graphs.append(gs.GainGraph(graph, G4, exps, True))
    return graphs


def test_meet_chains_match_the_listed_intersections():
    kinds = set()
    for g in seeded_mixed_graphs():
        directed, undirected = symmetry._mixed_parts(g)
        t_s, aut_s = aut_tables(directed), gs.automorphisms(directed)
        for h in (g.graph, undirected):
            members = {f.image for f in gs.automorphisms(h)}
            meet = types.SimpleNamespace(n=g.graph.n, elements=[f for f in aut_s if f.image in members])
            chain = symmetry._automorphism_chain(symmetry._meet(aut_tables(h), t_s))
            assert [f.image for f in chain.generators] == frontier_generating_set(meet)
            assert chain.order == len(meet.elements)
        kinds.add((directed.graph.m == 0, undirected.m == 0, g.graph.num_components > 1))
    assert len(kinds) >= 6


def test_mixed_aut_decomposition_random(rng):
    # the intersection identities are asserted inside; exercise them broadly
    for _ in range(8):
        graph = random_connected_graph(rng, n_lo=3, n_hi=7)
        g = random_gains(rng, graph, mixed_mode=True)
        aut_g, aut_s, aut_u = gs.mixed_aut_decomposition(g)
        assert gs.automorphisms(g).order <= min(aut_g.order, aut_s.order)


# -- the action --------------------------------------------------------------


def test_act_identity_and_definition(rng):
    graph = bowtie_minus().graph
    g = bowtie_minus()
    assert gs.act(gs.VertexPermutation.identity(5), g) == g
    for f in gs.automorphisms(graph):
        moved = gs.act(f, g)
        for u, v in graph.edges:
            assert moved.gain(u, v) == g.gain(f(u), f(v))


def test_act_conjugates_hermitian_matrix(rng):
    for _ in range(5):
        graph = random_connected_graph(rng, n_lo=3, n_hi=6)
        g = random_gains(rng, graph, k=4)
        for f in gs.automorphisms(graph).elements[:6]:
            p = permutation_matrix(f)
            want = p @ gs.hermitian_matrix(g) @ p.T
            assert np.allclose(gs.hermitian_matrix(gs.act(f, g)), want, atol=1e-12)


def test_act_composes():
    g = bowtie_minus()
    aut = gs.automorphisms(g.graph)
    for f in aut:
        for h in aut:
            assert gs.act(h, gs.act(f, g)) == gs.act(f.compose(h), g)


def test_act_rejects_non_automorphisms():
    g = all_ones(path_graph(3))
    with pytest.raises(gs.ValidationError, match="not an automorphism"):
        gs.act(gs.VertexPermutation((2, 1, 3)), g)
    with pytest.raises(gs.ValidationError, match="vertex set"):
        gs.act(gs.VertexPermutation.identity(4), g)


def test_act_respects_switching_classes(rng):
    for _ in range(5):
        graph = random_connected_graph(rng, n_lo=3, n_hi=6)
        b = random_gains(rng, graph, mixed_mode=True)
        c = gs.apply_switching(b, random_switching(rng, b))
        assert gs.switching_equivalent(b, c)
        for f in gs.automorphisms(graph).elements[:4]:
            assert gs.switching_equivalent(gs.act(f, b), gs.act(f, c))


# -- switching isomorphism ---------------------------------------------------


def test_switching_isomorphic_self():
    g = bowtie_minus()
    hit = gs.switching_isomorphic(g, g)
    assert hit is not None
    f, theta = hit
    assert gs.apply_switching(gs.act(f, g), theta) == g


def test_switching_isomorphic_conjugate_triangles():
    a = mixed(3, [(1, 2, 1), (2, 3, 0), (3, 1, 0)])  # cycle gain i
    b = mixed(3, [(1, 2, 3), (2, 3, 0), (3, 1, 0)])  # cycle gain -i
    assert not gs.switching_equivalent(a, b)
    hit = gs.switching_isomorphic(a, b)
    assert hit is not None
    f, theta = hit
    assert not f.is_identity()  # only a reflection can conjugate the gain
    assert gs.apply_switching(gs.act(f, a), theta) == b


def test_bowtie_orientations_not_switching_isomorphic():
    assert gs.switching_isomorphic(bowtie_minus(), bowtie_i()) is None


def test_switching_isomorphic_validation():
    with pytest.raises(gs.ValidationError):
        gs.switching_isomorphic(all_ones(path_graph(3)), all_ones(cycle_graph(3)))
    k2 = gs.build_gain_graph(3, gs.GainGroup(2), [(1, 2, 1), (2, 3, 0), (1, 3, 0)])
    with pytest.raises(gs.ValidationError):
        gs.switching_isomorphic(all_ones(cycle_graph(3)), k2)


@functools.cache
def listed_automorphisms(graph):
    return gs.automorphisms(graph)


def switching_isomorphic_by_listing(a, b):
    """The walk the search replaced: the first automorphism f of the underlying
    graph, in increasing order of image tuples, with act(f, a) switching
    equivalent to b, and switching_equivalent's witness."""
    forest = gs.spanning_forest(a.graph)
    for f in listed_automorphisms(a.graph):
        theta = gs.switching_equivalent(gs.act(f, a), b, forest=forest)
        if theta:
            return f, theta
    return None


def test_switching_isomorphic_does_not_branch_over_theta():
    # Vertex 2 has no earlier neighbour.  A search that branched over theta(2)
    # there would reach f = (1, 2, 4, 3) before the least automorphism that
    # works, (1, 2, 3, 4).
    c4 = gs.SimpleGraph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    a = gs.GainGraph(c4, gs.GainGroup(6), (1, 0, 4, 0))
    b = gs.GainGraph(c4, gs.GainGroup(6), (2, 4, 0, 5))
    f, theta = gs.switching_isomorphic(a, b)
    assert f.image == (1, 2, 3, 4)
    assert gs.apply_switching(gs.act(f, a), theta) == b
    assert (f, theta) == switching_isomorphic_by_listing(a, b)


def test_switching_isomorphic_matches_the_listing_loop():
    """(f, theta) equal the walk's, or both are None, on 1050 seeded pairs:
    per seeded graph (n 0-8, empty, complete, disconnected, isolated
    vertices) two switched relabellings of a seeded gain graph a (k 1-8,
    mixed or not, 1-3 distinct gains) and three graphs with any gains of a's
    group and mixed flag."""
    rng = random.Random(7110)
    verdicts, kinds = [], set()
    for graph in seeded_graphs():
        group = listed_automorphisms(graph).elements
        for i in range(5):
            a = seeded_gain_graph(rng, graph)
            k = a.group.order
            if i < 2:
                theta = gs.SwitchingFunction(a.group, tuple(rng.randrange(k) for _ in range(graph.n)))
                b = gs.apply_switching(gs.act(rng.choice(group), a), theta)
            else:
                pool = gs.MIXED_EXPONENTS if a.mixed_mode else range(k)
                b = gs.GainGraph(graph, a.group, [rng.choice(pool) for _ in a.exps], a.mixed_mode)
            hit = gs.switching_isomorphic(a, b)
            assert hit == switching_isomorphic_by_listing(a, b)
            if hit is not None:
                f, theta = hit
                assert gs.apply_switching(gs.act(f, a), theta) == b
            verdicts.append(hit is not None)
            kinds.add((graph.n, k, a.mixed_mode))
    assert len(verdicts) >= 1000 and verdicts.count(False) >= 200
    assert {n for n, _, _ in kinds} == set(range(9)) and {k for _, k, _ in kinds} == set(range(1, 9))
    assert any(mixed_mode for _, _, mixed_mode in kinds)


def test_signed_complete_graph_classes_are_the_two_graphs():
    # Switching classes of signed K_n up to relabelling are the two-graphs on
    # n points (Mallows and Sloane, SIAM J. Appl. Math. 28, 1975; OEIS A002854).
    # n = 6 (16 classes) is left out: grouping its signings takes over 2 s.
    for n, count in zip(range(1, 6), (1, 1, 2, 3, 7)):
        graph = complete_graph(n)
        reps = []
        for exps in itertools.product((0, 1), repeat=graph.m):
            g = gs.GainGraph(graph, gs.GainGroup(2), exps)
            if not any(gs.switching_isomorphic(rep, g) for rep in reps):
                reps.append(g)
        assert len(reps) == count


# -- orbits ------------------------------------------------------------------


def test_orbit_of_balanced_class_is_fixed():
    orbit = gs.orbit_of_class(all_ones(complete_graph(4)))
    assert len(orbit) == 1
    assert gs.is_balanced(orbit[0])


def test_orbit_of_c4_gain_i():
    g = mixed(4, [(1, 2, 1), (2, 3, 0), (3, 4, 0), (1, 4, 0)])
    orbit = gs.orbit_of_class(g)
    keys = {oracle_profile(rep) for rep in orbit}
    assert keys == {(1,), (3,)}  # reflections conjugate the cycle gain


def test_orbit_sizes_divide_group_order(rng):
    for _ in range(6):
        graph = random_connected_graph(rng, n_lo=3, n_hi=6)
        g = random_gains(rng, graph, mixed_mode=True)
        orbit = gs.orbit_of_class(g)
        assert gs.automorphisms(graph).order % len(orbit) == 0


def test_orbit_matches_the_walk_over_every_automorphism():
    # the BFS over the chain's generators reaches the classes of act(f, g) for
    # every automorphism f, and of nothing else
    rng = random.Random(7106)
    graphs = [complete_graph(5), cycle_graph(6), prism_graph(3), prism_graph(4), complete_bipartite_graph(3, 3)]
    graphs += [random_connected_graph(rng, n_lo=4, n_hi=7) for _ in range(6)]
    sizes = []
    for graph, k in itertools.product(graphs, (2, 3, 4, 6)):
        mixed_mode = k == 4 and rng.random() < 0.5
        pool = gs.MIXED_EXPONENTS if mixed_mode else range(k)
        g = gs.GainGraph(graph, gs.GainGroup(k), [rng.choice(pool) for _ in range(graph.m)], mixed_mode)
        forest = gs.spanning_forest(graph)
        orbit = gs.orbit_of_class(g)
        walked = {switching._normal_form(gs.act(f, g), forest)[1] for f in gs.automorphisms(graph)}
        assert [switching._normal_form(rep, forest)[1] for rep in orbit] == sorted(walked)
        assert all(rep.mixed_mode == mixed_mode for rep in orbit)
        sizes.append(len(orbit))
    assert max(sizes) >= 20 and sizes.count(1) < len(sizes) // 2


def test_orbit_cap():
    with pytest.raises(gs.InstanceTooLargeError):
        gs.orbit_of_class(all_ones(cycle_graph(3)), max_edges=2)


def test_orbit_membership_decides_switching_isomorphism(rng):
    """Positive pairs come from (act, switch); perturbed pairs must agree too."""
    for _ in range(6):
        graph = random_connected_graph(rng, n_lo=3, n_hi=6)
        a = random_gains(rng, graph, mixed_mode=True)
        aut = gs.automorphisms(graph)
        f = aut.elements[rng.randrange(aut.order)]
        b = gs.apply_switching(gs.act(f, a), random_switching(rng, a))
        assert gs.switching_isomorphic(a, b) is not None
        for _ in range(3):
            c = random_gains(rng, graph, mixed_mode=True)
            in_orbit = oracle_profile(c) in {oracle_profile(rep) for rep in gs.orbit_of_class(a)}
            assert (gs.switching_isomorphic(a, c) is not None) == in_orbit


# -- underlying isomorphism --------------------------------------------------


def test_underlying_isomorphism_relabeled(rng):
    for _ in range(6):
        a = random_connected_graph(rng, n_lo=3, n_hi=7)
        img = list(range(1, a.n + 1))
        rng.shuffle(img)
        sigma = dict(zip(range(1, a.n + 1), img))
        b = gs.SimpleGraph(a.n, [(sigma[u], sigma[v]) for u, v in a.edges])
        f = gs.underlying_isomorphism(a, b)
        assert f is not None
        assert all(b.has_edge(f(u), f(v)) for u, v in a.edges)


def test_underlying_isomorphism_negatives():
    star = gs.SimpleGraph(4, [(1, 2), (1, 3), (1, 4)])
    assert gs.underlying_isomorphism(path_graph(4), star) is None  # degree sequences differ
    two_triangles = gs.SimpleGraph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    assert gs.underlying_isomorphism(cycle_graph(6), two_triangles) is None  # same degrees
    assert gs.underlying_isomorphism(path_graph(3), path_graph(4)) is None
    with pytest.raises(gs.InstanceTooLargeError):
        gs.underlying_isomorphism(path_graph(11), path_graph(11))
