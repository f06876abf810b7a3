"""Shared builders, fixtures, and random-instance generators for the suite.

Random data is always drawn from a seeded random.Random so failures replay.
"""

import itertools
import random

import pytest

import gainswitch as gs

G4 = gs.GainGroup(4)


def mixed(n, arcs):
    """Mixed graph from (u, v, exponent) triples; exponent applies to u -> v."""
    return gs.build_gain_graph(n, G4, arcs, mixed_mode=True)


def gain_graph(n, k, arcs):
    return gs.build_gain_graph(n, gs.GainGroup(k), arcs)


def arc_triangle():
    """Mixed triangle with one directed edge; spectrum {0, +-sqrt(3)}."""
    return mixed(3, [(1, 2, 1), (2, 3, 0), (3, 1, 0)])


def bowtie_minus():
    """Bowtie with arcs 1->2, 2->3, 2->4, 5->4; triangle 123 has gain -1."""
    return mixed(5, [(1, 2, 1), (1, 3, 0), (2, 3, 1), (2, 4, 1), (2, 5, 0), (5, 4, 1)])


def bowtie_i():
    """Same bowtie with arcs 1->2 and 2->4 only; triangle 123 has gain i."""
    return mixed(5, [(1, 2, 1), (1, 3, 0), (2, 3, 0), (2, 4, 1), (2, 5, 0), (4, 5, 0)])


def cycle_graph(n):
    return gs.SimpleGraph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def path_graph(n):
    return gs.SimpleGraph(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n):
    return gs.SimpleGraph(n, [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)])


def all_ones(graph, k=4, mixed_mode=True):
    group = gs.GainGroup(k)
    return gs.GainGraph(graph, group, (group.one,) * graph.m, mixed_mode=mixed_mode)


def random_connected_graph(rng, n_lo=2, n_hi=8, m_cap=12):
    """Random spanning tree plus extra edges, connected by construction."""
    n = rng.randint(n_lo, n_hi)
    edges = set()
    for v in range(2, n + 1):
        edges.add((rng.randint(1, v - 1), v))
    rest = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in edges
    ]
    rng.shuffle(rest)
    budget = min(m_cap - len(edges), len(rest))
    for e in rest[: rng.randint(0, max(budget, 0))]:
        edges.add(e)
    return gs.SimpleGraph(n, sorted(edges))


def random_graph(rng, n_hi=9, m_cap=14):
    """Random edge subset of K_n: forests and disconnected graphs included."""
    n = rng.randint(1, n_hi)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return gs.SimpleGraph(n, rng.sample(pairs, rng.randint(0, min(m_cap, len(pairs)))))


def tree_path_cycles(graph, f):
    """Fundamental cycles of f built from vertex paths, as the package once did.

    Each chord (u, v) is followed by the forest path from v back to u, found
    by climbing both ends to their meeting vertex; the cycle omits the
    repeated u.
    """

    def tree_path(u, v):
        left, right = [u], [v]
        while f.depth[u] > f.depth[v]:
            u = f.parent[u]
            left.append(u)
        while f.depth[v] > f.depth[u]:
            v = f.parent[v]
            right.append(v)
        while u != v:
            u, v = f.parent[u], f.parent[v]
            left.append(u)
            right.append(v)
        return left + right[-2::-1]

    return tuple(
        (u,) + tuple(tree_path(v, u)[:-1])
        for e, (u, v) in enumerate(graph.edges)
        if f.is_chord[e]
    )


def random_gains(rng, graph, k=4, mixed_mode=False):
    group = gs.GainGroup(k)
    pool = gs.MIXED_EXPONENTS if mixed_mode else tuple(range(k))
    gains = tuple(gs.GainExponent(group, rng.choice(pool)) for _ in range(graph.m))
    return gs.GainGraph(graph, group, gains, mixed_mode=mixed_mode)


def random_switching(rng, g):
    return gs.SwitchingFunction(g.group, tuple(rng.randrange(g.group.order) for _ in range(g.graph.n)))


def random_cactus(rng, m_cap=14):
    """Grow a cactus by attaching cycles and bridges at random vertices."""
    n = 1
    edges = []
    while len(edges) < m_cap:
        attach = rng.randint(1, n)
        if rng.random() < 0.3:
            n += 1
            edges.append((attach, n))
        else:
            length = rng.randint(3, 6)
            if len(edges) + length > m_cap:
                break
            ring = [attach] + list(range(n + 1, n + length))
            n += length - 1
            for i in range(length):
                u, v = ring[i], ring[(i + 1) % length]
                edges.append((min(u, v), max(u, v)))
        if rng.random() < 0.2:
            break
    return gs.SimpleGraph(n, sorted(set(edges)))


def random_bipartite_graph(rng, n_hi=10):
    """Random connected bipartite graph built on a two-colored tree."""
    n = rng.randint(2, n_hi)
    side = {1: 0}
    edges = set()
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        edges.add((u, v))
        side[v] = 1 - side[u]
    rest = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in edges and side[u] != side[v]
    ]
    rng.shuffle(rest)
    for e in rest[: rng.randint(0, len(rest))]:
        edges.add(e)
    return gs.SimpleGraph(n, sorted(edges))


# Hand-built 2-connected plane graphs: (name, n, edges, clockwise inner faces).
# Shared edges are traversed in opposite directions by their two faces.
PLANE_CATALOG = [
    ("C4", 4, [(1, 2), (2, 3), (3, 4), (1, 4)], [(1, 2, 3, 4)]),
    ("C5", 5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], [(1, 2, 3, 4, 5)]),
    ("C6", 6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)], [(1, 2, 3, 4, 5, 6)]),
    (
        "diamond",
        4,
        [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)],
        [(1, 2, 3), (2, 4, 3)],
    ),
    (
        "house",
        5,
        [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 5)],
        [(1, 2, 3, 4), (2, 1, 5)],
    ),
    (
        "theta",
        5,
        [(1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)],
        [(1, 3, 2, 4), (1, 4, 2, 5)],
    ),
    (
        "pentagon_chord",
        5,
        [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (1, 5)],
        [(1, 2, 3), (1, 3, 4, 5)],
    ),
    (
        "two_pentagons",
        7,
        [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 7), (6, 7), (3, 6)],
        [(1, 2, 3, 4, 5), (3, 2, 1, 7, 6)],
    ),
    (
        "two_squares",
        5,
        [(1, 2), (2, 3), (3, 4), (1, 4), (3, 5), (1, 5)],
        [(1, 2, 3, 4), (3, 2, 1, 5)],
    ),
    (
        "prism",
        6,
        [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5), (3, 6), (4, 5), (5, 6), (4, 6)],
        [(1, 2, 3), (2, 1, 4, 5), (3, 2, 5, 6), (1, 3, 6, 4)],
    ),
    (
        "K4",
        4,
        [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)],
        [(1, 2, 4), (2, 3, 4), (3, 1, 4)],
    ),
    (
        "wheel5",
        6,
        [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6)],
        [(1, 2, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6), (5, 1, 6)],
    ),
    (
        "cube",
        8,
        [
            (1, 2), (2, 3), (3, 4), (1, 4),
            (5, 6), (6, 7), (7, 8), (5, 8),
            (1, 5), (2, 6), (3, 7), (4, 8),
        ],
        [(1, 2, 3, 4), (2, 1, 5, 6), (3, 2, 6, 7), (4, 3, 7, 8), (1, 4, 8, 5)],
    ),
]


@pytest.fixture
def rng():
    return random.Random(20260815)
