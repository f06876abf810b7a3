"""Spanning forests, cycle gains, and the switching-equivalence decision.

Switching a gain graph by a vertex function theta replaces each gain
a(u, v) by conj(theta(u)) * a(u, v) * theta(v); matrix-side this conjugates
the Hermitian adjacency matrix by the diagonal matrix D(theta).  Cycle gains
are invariant under switching, and agreement on the fundamental cycles of any
spanning forest decides equivalence outright.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress

from .errors import InstanceTooLargeError, ValidationError
from .gaincore import (
    GainExponent,
    GainGraph,
    SimpleGraph,
    SwitchingFunction,
    _elements,
)

__all__ = [
    "DIFFERENT_GRAPH",
    "SpanningForest",
    "FundamentalCycleBasis",
    "spanning_forest",
    "fundamental_cycles",
    "canonical_basis",
    "walk_gain",
    "cycle_gain",
    "basis_gain_profile",
    "apply_switching",
    "normalize_to_forest",
    "switching_equivalent",
    "first_profile_difference",
    "enumerate_cycles",
    "enumerate_chordless_cycles",
    "cycle_gains_equal_chordless",
    "is_balanced",
    "gain_character",
    "bipartition",
    "equivalent_to_negation",
    "negation_witness",
    "BALANCED",
    "NEGATIVE",
    "IMAGINARY",
    "MIXED_PROFILE",
]

DEFAULT_CYCLE_CAP = 12

BALANCED = "balanced"
NEGATIVE = "negative"
IMAGINARY = "imaginary"
MIXED_PROFILE = "mixed-profile"


class _DifferentGraphType:
    """Distinguished falsy result: the inputs do not share an underlying graph."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "DIFFERENT_GRAPH"


DIFFERENT_GRAPH = _DifferentGraphType()


@dataclass(frozen=True)
class SpanningForest:
    """A breadth-first spanning forest; index 0 of each per-vertex tuple is unused."""

    parent: tuple[int, ...]  # parent vertex, 0 at roots
    root: tuple[int, ...]
    depth: tuple[int, ...]
    bfs_order: tuple[int, ...]
    is_chord: tuple[bool, ...]  # per edge id: False on forest edges

    @property
    def forest_edges(self) -> frozenset[int]:
        return frozenset(e for e, chord in enumerate(self.is_chord) if not chord)


@dataclass(frozen=True)
class FundamentalCycleBasis:
    """One cycle per non-forest edge, as chord-first vertex sequences.

    Cycle j starts with its chord (u, v), u < v, then follows the forest path
    from v back to u; the closing edge of the sequence is a forest edge into u.
    Cycles are ordered by chord edge id.
    """

    cycles: tuple[tuple[int, ...], ...]
    chords: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.cycles)


def spanning_forest(g: SimpleGraph, vertex_order=None) -> SpanningForest:
    """Breadth-first spanning forest; each component is rooted at its smallest vertex.

    ``vertex_order`` optionally re-ranks the vertices (a permutation of 1..n)
    to obtain a different forest of the same graph; roots and neighbor visits
    then follow that ranking instead of the numeric one.  The default forest
    is built once per graph and the same object is returned on every call.
    """
    n = g.n
    if vertex_order is None:
        if g._forest is not None:
            return g._forest

        def by_rank(vertices):  # vertex lists and adjacency tuples are already sorted
            return vertices
    else:
        vertex_order = list(vertex_order)
        if sorted(vertex_order) != list(range(1, n + 1)):
            raise ValidationError("vertex_order must be a permutation of 1..n")
        rank = [0] * (n + 1)
        for pos, v in enumerate(vertex_order):
            rank[v] = pos

        def by_rank(vertices):
            return sorted(vertices, key=rank.__getitem__)
    parent = [0] * (n + 1)
    root = [0] * (n + 1)
    depth = [0] * (n + 1)
    order: list[int] = []
    is_chord = [True] * g.m
    index = g.edge_index
    seen = [False] * (n + 1)
    for s in by_rank(range(1, n + 1)):
        if seen[s]:
            continue
        seen[s] = True
        root[s] = s
        order.append(s)
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in by_rank(g.neighbors(v)):
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    root[w] = s
                    depth[w] = depth[v] + 1
                    order.append(w)
                    is_chord[index[(v, w) if v < w else (w, v)]] = False
                    queue.append(w)
    forest = SpanningForest(tuple(parent), tuple(root), tuple(depth), tuple(order), tuple(is_chord))
    if vertex_order is None:
        g._forest = forest
    return forest


def _tree_path(f: SpanningForest, u: int, v: int) -> list[int]:
    """Vertex path from u to v inside the forest."""
    if f.root[u] != f.root[v]:
        raise ValidationError(f"vertices {u} and {v} lie in different components")
    left, right = [u], [v]
    a, b = u, v
    while f.depth[a] > f.depth[b]:
        a = f.parent[a]
        left.append(a)
    while f.depth[b] > f.depth[a]:
        b = f.parent[b]
        right.append(b)
    while a != b:
        a = f.parent[a]
        left.append(a)
        b = f.parent[b]
        right.append(b)
    return left + right[-2::-1]


def fundamental_cycles(g: SimpleGraph, f: SpanningForest) -> FundamentalCycleBasis:
    """The fundamental cycles of the non-forest edges, ordered by edge id."""
    cycles = []
    chords = []
    for e, (u, v) in compress(enumerate(g.edges), f.is_chord):
        path = _tree_path(f, v, u)  # v .. u through the forest
        cycles.append((u,) + tuple(path[:-1]))
        chords.append(e)
    return FundamentalCycleBasis(tuple(cycles), tuple(chords))


def canonical_basis(g: SimpleGraph) -> tuple[SpanningForest, FundamentalCycleBasis]:
    """The default forest and fundamental cycle basis used across the package."""
    f = spanning_forest(g)
    return f, fundamental_cycles(g, f)


def walk_gain(g: GainGraph, walk) -> GainExponent:
    """Gain of a walk: the ordered product of edge gains along it.

    Consecutive walk vertices must be adjacent; a single-vertex walk has
    gain 1.  Reversing the walk conjugates the result.
    """
    walk = tuple(walk)
    if not walk:
        raise ValidationError("empty walk")
    acc = 0
    for a, b in zip(walk, walk[1:]):
        acc += g.exponent(a, b)
    return g.group.element(acc)


def cycle_gain(g: GainGraph, cycle) -> GainExponent:
    """Gain of a cycle given as a vertex sequence without the repeated start."""
    cycle = tuple(cycle)
    return walk_gain(g, cycle + (cycle[0],))


def basis_gain_profile(g: GainGraph, basis: FundamentalCycleBasis) -> tuple[GainExponent, ...]:
    """Cycle gains over a fundamental basis, ordered by chord edge id."""
    return tuple(cycle_gain(g, c) for c in basis.cycles)


def apply_switching(g: GainGraph, theta: SwitchingFunction) -> GainGraph:
    """Switch g by theta: each gain (u, v) becomes conj(theta(u)) * gain * theta(v).

    The mixed flag is kept only if every switched gain still lies in
    {1, i, -i}; switching by a function with -1 values can leave that set.
    """
    if theta.n != g.graph.n:
        raise ValidationError("switching function defined on a different vertex set")
    if theta.values and theta.group != g.group:
        raise ValidationError("gain group mismatch")
    k = g.group.order
    th = [0] + [x.exp for x in theta.values]
    exps = tuple((t - th[u] + th[v]) % k for (u, v), t in zip(g.graph.edges, g.exps))
    return GainGraph._from_exps(g.graph, g.group, exps, g.mixed_mode and 2 not in exps)


def _normal_form(g: GainGraph, f: SpanningForest) -> tuple[list[int], tuple[int, ...]]:
    """Vertex potentials on f, and the chord exponents of g normalised to f.

    ``pot[v]`` is the exponent of v's forest path to its root; switching by pot
    leaves chord (u, v), listed by edge id, with t_uv + pot[v] - pot[u]: the
    gain of its fundamental cycle.
    """
    k = g.group.order
    exps, index = g.exps, g.graph.edge_index
    pot = [0] * (g.graph.n + 1)
    for v in f.bfs_order:
        p = f.parent[v]
        if p:
            pot[v] = (pot[p] + exps[index[v, p]] if v < p else pot[p] - exps[index[p, v]]) % k
    chords = tuple(
        (x + pot[v] - pot[u]) % k
        for (u, v), x in compress(zip(g.graph.edges, exps), f.is_chord)
    )
    return pot, chords


def normalize_to_forest(g: GainGraph, f: SpanningForest | None = None):
    """Switch g so that every forest edge has gain 1.

    Returns ``(normalized, theta)`` where theta(root) = 1 on each component
    and theta(w) is the gain of the forest path from w to its root.  Any two
    switchings achieving all-1 forest gains differ by a constant per
    component, so the normalized graph is canonical for the given forest.
    """
    if f is None:
        f = spanning_forest(g.graph)
    pot, _ = _normal_form(g, f)
    theta = SwitchingFunction(_elements(g.group, pot[1:]))
    return apply_switching(g, theta), theta


def switching_equivalent(a: GainGraph, b: GainGraph, forest: SpanningForest | None = None):
    """Decide switching equivalence of two gain graphs on the same underlying graph.

    Returns a witness ``SwitchingFunction`` theta, checked to switch every
    gain of a to the gain of b, when the graphs are equivalent; ``None``
    when they share the underlying graph but are inequivalent; and the falsy
    sentinel ``DIFFERENT_GRAPH`` when they do not share it (or their groups
    differ), so that case is never confused with a plain negative verdict.
    """
    if a.graph != b.graph or a.group != b.group:
        return DIFFERENT_GRAPH
    f = forest if forest is not None else spanning_forest(a.graph)
    pot_a, chords_a = _normal_form(a, f)
    pot_b, chords_b = _normal_form(b, f)
    if chords_a != chords_b:
        return None
    k = a.group.order
    shift = [(x - y) % k for x, y in zip(pot_a, pot_b)]
    for (u, v), x, y in zip(a.graph.edges, a.exps, b.exps):  # exact check; cannot fail
        if (x - shift[u] + shift[v]) % k != y:
            raise AssertionError("internal error: switching witness failed to verify")
    return SwitchingFunction(_elements(a.group, shift[1:]))


def first_profile_difference(a: GainGraph, b: GainGraph, forest: SpanningForest | None = None):
    """First basis cycle whose gains differ, as ``(cycle, gain_a, gain_b)``.

    Returns ``None`` when the profiles agree.  Preconditions as in
    ``switching_equivalent``; raises if the underlying graphs differ.
    """
    if a.graph != b.graph or a.group != b.group:
        raise ValidationError("inputs do not share an underlying graph")
    f = forest if forest is not None else spanning_forest(a.graph)
    _, chords_a = _normal_form(a, f)
    _, chords_b = _normal_form(b, f)
    chord_ids = compress(range(a.graph.m), f.is_chord)
    for e, x, y in zip(chord_ids, chords_a, chords_b):
        if x != y:
            u, v = a.graph.edges[e]
            cycle = (u,) + tuple(_tree_path(f, v, u)[:-1])
            return cycle, GainExponent(a.group, x), GainExponent(a.group, y)
    return None


def enumerate_cycles(g: SimpleGraph, max_vertices: int = DEFAULT_CYCLE_CAP) -> list[tuple[int, ...]]:
    """All simple cycles, each once, as canonical vertex tuples.

    A cycle is listed starting at its smallest vertex, with the traversal
    direction fixed by second vertex < last vertex.  Exponential in general;
    refuses graphs with more than ``max_vertices`` vertices.
    """
    if g.n > max_vertices:
        raise InstanceTooLargeError(
            f"cycle enumeration capped at {max_vertices} vertices, graph has {g.n}"
        )
    cycles: list[tuple[int, ...]] = []
    on_path = [False] * (g.n + 1)

    def grow(path: list[int]) -> None:
        last = path[-1]
        if len(path) >= 3 and path[1] < last and g.has_edge(last, path[0]):
            cycles.append(tuple(path))
        for y in g.neighbors(last):
            if y > path[0] and not on_path[y]:
                on_path[y] = True
                path.append(y)
                grow(path)
                path.pop()
                on_path[y] = False

    for s in range(1, g.n + 1):
        on_path[s] = True
        grow([s])
        on_path[s] = False
    return cycles


def _is_chordless(g: SimpleGraph, cycle: tuple[int, ...]) -> bool:
    l = len(cycle)
    for i in range(l):
        for j in range(i + 1, l):
            consecutive = j - i == 1 or (i == 0 and j == l - 1)
            if not consecutive and g.has_edge(cycle[i], cycle[j]):
                return False
    return True


def enumerate_chordless_cycles(g: SimpleGraph, max_vertices: int = DEFAULT_CYCLE_CAP) -> list[tuple[int, ...]]:
    """All chordless simple cycles, canonical form as in ``enumerate_cycles``."""
    return [c for c in enumerate_cycles(g, max_vertices) if _is_chordless(g, c)]


def cycle_gains_equal_chordless(a: GainGraph, b: GainGraph, max_vertices: int = DEFAULT_CYCLE_CAP) -> bool:
    """Compare gains over every chordless cycle of the shared underlying graph.

    Agreement on chordless cycles alone already decides switching
    equivalence; this is the independent cross-check route to
    ``switching_equivalent``.
    """
    if a.graph != b.graph or a.group != b.group:
        raise ValidationError("inputs do not share an underlying graph")
    for cyc in enumerate_chordless_cycles(a.graph, max_vertices):
        if cycle_gain(a, cyc) != cycle_gain(b, cyc):
            return False
    return True


def is_balanced(g: GainGraph) -> bool:
    """True when every cycle has gain 1 (checked on a fundamental basis)."""
    _, chords = _normal_form(g, spanning_forest(g.graph))
    return not any(chords)


def _chord_cycles_disjoint(g: SimpleGraph, f: SpanningForest) -> bool:
    """True when the fundamental cycles of f share no edge: exactly when g is a cactus.

    In a cactus each chord's cycle is the one cycle of its block.
    Conversely, when the cycles are disjoint every cycle of g, a sum of
    them, is one of them, so no block holds a theta (whose third cycle is
    the sum of the other two).  Only forest edges can be shared; each is
    named by its child end, and the walk up each chord's two forest paths
    stops at the first edge met twice, so it takes at most n steps.
    """
    used = [False] * (g.n + 1)
    for a, b in compress(g.edges, f.is_chord):
        while a != b:
            if f.depth[a] < f.depth[b]:
                a, b = b, a
            if used[a]:
                return False
            used[a] = True
            a = f.parent[a]
    return True


def gain_character(g: GainGraph) -> str:
    """Classify the multiset of cycle gains.

    Returns ``"balanced"`` (every cycle gain 1; acyclic graphs count as
    balanced), ``"negative"`` (every cycle gain -1), ``"imaginary"`` (every
    cycle gain i or -i), or ``"mixed-profile"``.  Decided from the chord
    exponents of the default forest, with no cycle listing: when the
    fundamental cycles are disjoint they are all the cycles; otherwise some
    block holds a theta with path exponents a, b, c between two vertices,
    whose cycle gains a - b, b - c and a - c are neither all -1 nor all
    +-i, so an unbalanced graph is mixed-profile.
    """
    f = spanning_forest(g.graph)
    _, chords = _normal_form(g, f)
    if not any(chords):
        return BALANCED
    if not _chord_cycles_disjoint(g.graph, f):
        return MIXED_PROFILE
    gains = _elements(g.group, chords)
    if all(x.is_minus_one() for x in gains):
        return NEGATIVE
    if all(x.is_imaginary_unit() for x in gains):
        return IMAGINARY
    return MIXED_PROFILE


def bipartition(g: SimpleGraph):
    """A 2-coloring as ``(side0, side1)`` vertex sets, or ``None`` if odd cycles exist."""
    color = [-1] * (g.n + 1)
    for s in range(1, g.n + 1):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side0 = {v for v in range(1, g.n + 1) if color[v] == 0}
    side1 = {v for v in range(1, g.n + 1) if color[v] == 1}
    return side0, side1


def equivalent_to_negation(g: GainGraph) -> bool:
    """True iff g is switching equivalent to its negation.

    This holds exactly when the underlying graph is bipartite, so the check
    is purely structural and valid for every gain group.
    """
    return bipartition(g.graph) is not None


def negation_witness(g: GainGraph) -> SwitchingFunction | None:
    """A theta with ``apply_switching(g, theta) == negate(g)``, or None.

    Built from a 2-coloring (theta = 1 on one side, -1 on the other), so the
    group order must be even; returns None when the graph is not bipartite.
    """
    k = g.group.order
    if k % 2 != 0:
        raise ValidationError("negation needs -1 in the gain group (even order)")
    sides = bipartition(g.graph)
    if sides is None:
        return None
    side0, _ = sides
    half = GainExponent(g.group, k // 2)
    values = tuple(g.group.one if v in side0 else half for v in range(1, g.graph.n + 1))
    return SwitchingFunction(values)
