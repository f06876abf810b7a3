"""Spanning forests, cycle gains, and the switching-equivalence decision.

Switching a gain graph by a vertex function theta replaces each gain
a(u, v) by conj(theta(u)) * a(u, v) * theta(v); matrix-side this conjugates
the Hermitian adjacency matrix by the diagonal matrix D(theta).  Cycle gains
are invariant under switching, and agreement on the fundamental cycles of any
spanning forest decides equivalence outright.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ValidationError
from .gaincore import GainExponent, GainGraph, SimpleGraph, SwitchingFunction, _check_cap, negate

__all__ = [
    "SpanningForest",
    "FundamentalCycleBasis",
    "spanning_forest",
    "fundamental_cycles",
    "walk_gain",
    "cycle_gain",
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


class SpanningForest:
    """A breadth-first spanning forest; index 0 of each per-vertex tuple is unused.

    Each forest edge is named by its child end v: it joins v to
    ``parent[v]`` and has edge id ``parent_edge[v]``.  The six fields are
    tuples: ``parent`` (0 at roots), ``root``, ``depth``, ``bfs_order``,
    ``is_chord`` (per edge id: False on forest edges) and ``parent_edge``
    (-1 at roots).  A forest walked by whole levels (see ``_level_walk``)
    keeps them as numpy arrays in ``_arrays``, read by the array passes, and
    builds each tuple when it is first read, as ``SimpleGraph.csr`` does.
    Instances are immutable by convention and compare by their fields.
    """

    __slots__ = ("_fields", "_arrays", "_levels", "_use")
    _NAMES = ("parent", "root", "depth", "bfs_order", "is_chord", "parent_edge")

    def __init__(self, parent, root, depth, bfs_order, is_chord, parent_edge) -> None:
        self._fields = [parent, root, depth, bfs_order, is_chord, parent_edge]
        self._arrays = self._levels = self._use = None

    @classmethod
    def _walked(cls, arrays: tuple, levels: list[np.ndarray]) -> "SpanningForest":
        """A forest from ``_level_walk``: its six fields as int64 (bool for
        ``is_chord``) arrays, and ``levels``, the vertices of each depth as
        an int64 array, depth 0 first."""
        f = cls(*(None,) * 6)
        f._arrays, f._levels = arrays, levels
        return f

    def _field(self, i: int) -> tuple:
        value = self._fields[i]
        if value is None:
            value = self._fields[i] = tuple(self._arrays[i].tolist())
        return value

    parent = property(lambda self: self._field(0))
    root = property(lambda self: self._field(1))
    depth = property(lambda self: self._field(2))
    bfs_order = property(lambda self: self._field(3))
    is_chord = property(lambda self: self._field(4))
    parent_edge = property(lambda self: self._field(5))

    def _key(self) -> tuple:
        return tuple(map(self._field, range(6)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "SpanningForest(" + ", ".join(f"{name}={value!r}" for name, value in zip(self._NAMES, self._key())) + ")"


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
    is built once per graph and the same object is returned on every call;
    from ``gaincore._ARRAY_WALK_EDGES`` edges on it is walked a whole level
    at a time (see ``_level_walk``), with the same result, and keeps its
    fields as arrays until they are read.
    """
    n = g.n
    if vertex_order is None:
        if g._forest is None:
            arrays = g._array_csr()
            g._forest = _level_walk(g, arrays) if arrays is not None and n else _queue_walk(g, g.csr)
        return g._forest
    offsets, neighbours, edge_ids = g.csr  # each row's neighbours sorted, and their edge ids
    try:
        roots = list(map(operator.index, vertex_order))
    except TypeError:  # not iterable, or an entry that is not an integer
        roots = None
    if roots is None or sorted(roots) != list(range(1, n + 1)):
        raise ValidationError("vertex_order must be a permutation of 1..n")
    rank = [0] * (n + 1)
    for pos, v in enumerate(roots):
        rank[v] = pos
    # The same rows, each re-sorted by the rank of its neighbours.
    places = [
        i for v in range(n + 1) for i in sorted(range(offsets[v], offsets[v + 1]), key=lambda i: rank[neighbours[i]])
    ]
    return _queue_walk(g, (offsets, [neighbours[i] for i in places], [edge_ids[i] for i in places]), roots)


def _queue_walk(g: SimpleGraph, csr, roots=None, state=None) -> SpanningForest:
    """The breadth-first forest by one queue per component, over ``csr``'s rows.

    Components are walked from each unreached root in turn (1..n by
    default).  ``state`` resumes a walk that ``_level_walk`` began:
    ``(parent, root, depth, parent_edge, is_chord, order, tree)`` as lists,
    ``tree`` None or the queue of the component of ``roots``' first vertex,
    its vertices reached and ``order`` holding the vertices queued before them.
    """
    n = g.n
    offsets, neighbours, edge_ids = csr
    if state is None:
        parent, root, depth, parent_edge = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1), [-1] * (n + 1)
        is_chord, order, tree = [True] * g.m, [], None
    else:
        parent, root, depth, parent_edge, is_chord, order, tree = state
    for s in range(1, n + 1) if roots is None else roots:
        if tree is None:
            if root[s]:
                continue
            root[s] = s
            tree = [s]  # grows while it is walked: the breadth-first queue
        for v in tree:
            d = depth[v] + 1
            for i in range(offsets[v], offsets[v + 1]):
                w = neighbours[i]
                if not root[w]:
                    e = edge_ids[i]
                    root[w] = s
                    parent[w] = v
                    depth[w] = d
                    parent_edge[w] = e
                    is_chord[e] = False
                    tree.append(w)
        order += tree
        tree = None
    return SpanningForest(*map(tuple, (parent, root, depth, order, is_chord, parent_edge)))


# _level_walk hands the walk to the queue loop at a level narrower than
# _NARROW vertices, as are the _STALL levels above it, and no wider than the
# level _STALL levels up, while more than _NARROW times its width are
# unreached: a path, a cycle or a ladder, whose levels would each pay numpy's
# fixed cost (about 25 us a level, what the queue loop takes for some 50
# vertices) for a few vertices.  Walked by levels alone, C_4000 took 52 ms
# against 3.2 ms for the queue loop.  The narrow levels above keep the thin
# last levels of a wide walk, with other components left, on the level walk.
_NARROW = 32
_STALL = 4


def _level_walk(g: SimpleGraph, arrays) -> SpanningForest:
    """The breadth-first forest walked one level at a time, one component after another.

    Each level gathers its frontier's ``csr`` rows in queue order, and keeps
    the first place of each neighbour not reached before: the vertices the
    queue walk appends while it takes that level, in the order it appends
    them.  A reversed scatter finds the first places: numpy writes a 1-d
    fancy assignment in index order, so the last write to an index wins.
    Components are walked from their smallest vertices in turn, and an
    isolated vertex is its own tree with no walk.  A walk that stops
    widening (see ``_NARROW``), and the components left after one of fewer
    than ``_NARROW`` vertices, are finished by ``_queue_walk`` from the lists.
    """
    offsets, neighbours, edge_ids, rows = arrays
    n = g.n
    parent = np.zeros(n + 1, dtype=np.int64)
    parent_edge = np.full(n + 1, -1, dtype=np.int64)
    root = np.zeros(n + 1, dtype=np.int64)
    depth = np.zeros(n + 1, dtype=np.int64)
    reached = np.zeros(n + 1, dtype=bool)
    reached[0] = True  # vertex 0 is no vertex
    first = np.empty(n + 1, dtype=np.int64)
    degree = np.diff(offsets)
    parts, lone, trees = [], [], []  # bfs_order in pieces; isolated vertices; each walk's levels
    unreached, r, queue, small = n, 1 if degree[1] else 0, None, False
    while unreached:
        if not r:  # the isolated vertices below the next root, then that root
            rest = np.flatnonzero(~reached)
            walked = np.flatnonzero(degree[rest])
            isolated = rest[: walked[0]] if len(walked) else rest
            if len(isolated):
                parts.append(isolated)
                lone.append(isolated)
                root[isolated] = isolated
                reached[isolated] = True
                unreached -= len(isolated)
                if not unreached:
                    break
            r = int(rest[walked[0]])
            if small:  # after a small component, the rest is queue work
                break
        reached[r] = True
        levels = [np.array([r])]
        unreached -= 1
        while unreached and queue is None:
            frontier = levels[-1]
            starts, counts = offsets[frontier], degree[frontier]
            ends = np.cumsum(counts)
            places = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
            fresh = np.flatnonzero(~reached[neighbours[places]])
            if not len(fresh):
                break
            places = places[fresh]
            w = neighbours[places]
            at = np.arange(len(w))
            first[w[::-1]] = at[::-1]
            new = np.flatnonzero(first[w] == at)
            w, places = w[new], places[new]
            parent[w] = rows[places]
            parent_edge[w] = edge_ids[places]
            reached[w] = True
            levels.append(w)
            width = len(w)
            unreached -= width
            if (
                len(levels) > _STALL
                and max(map(len, levels[-1 - _STALL :])) < _NARROW
                and width <= len(levels[-1 - _STALL])
                and unreached > _NARROW * width
            ):
                queue = w
        tree = np.concatenate(levels)
        root[tree] = r
        depth[tree] = np.repeat(np.arange(len(levels)), list(map(len, levels)))
        if queue is not None:  # the last level is the queue that _queue_walk goes on with
            parts.append(tree[: len(tree) - len(queue)])
            break
        parts.append(tree)
        trees.append(levels)
        r, small = 0, len(tree) < _NARROW
    order = parts[0] if len(parts) == 1 else np.concatenate(parts)
    is_chord = np.ones(g.m + 1, dtype=bool)
    is_chord[parent_edge] = False  # a root's -1 clears the spare last entry
    is_chord = is_chord[:-1]
    if unreached:
        state = parent, root, depth, parent_edge, is_chord, order
        tree = None if queue is None else queue.tolist()
        return _queue_walk(g, g.csr, range(r, n + 1), (*(column.tolist() for column in state), tree))
    if len(trees) == 1 and not lone:
        levels = trees[0]
    else:  # each depth's vertices from every tree
        by_depth = [lone]
        for levels in trees:
            by_depth += [[] for _ in range(len(levels) - len(by_depth))]
            for here, level in zip(by_depth, levels):
                here.append(level)
        levels = list(map(np.concatenate, by_depth))
    return SpanningForest._walked((parent, root, depth, order, is_chord, parent_edge), levels)


def _chord_walk(f: SpanningForest, u: int, v: int):
    """The forest edges on the fundamental cycle of chord (u, v), u and v in one tree.

    Yields ``(child, climbs)`` per forest edge, the edge named by its child
    end; ``climbs`` is True when the cycle u -> v -> ... -> u runs that edge
    from child to parent, which it does on v's side of the path.  Each side
    is yielded bottom up, the deeper end stepping first.
    """
    depth, parent = f.depth, f.parent
    while u != v:
        if depth[v] >= depth[u]:
            yield v, True
            v = parent[v]
        else:
            yield u, False
            u = parent[u]


def _chord_cycle(f: SpanningForest, u: int, v: int) -> tuple[int, ...]:
    """The fundamental cycle of chord (u, v) as a vertex sequence starting u, v."""
    up, down = [], []
    for x, climbs in _chord_walk(f, u, v):
        (up if climbs else down).append(x)
    return (u, v, *map(f.parent.__getitem__, up), *reversed(down))[:-1]  # drop the closing u


def fundamental_cycles(g: SimpleGraph, f: SpanningForest) -> FundamentalCycleBasis:
    """The fundamental cycles of the non-forest edges, ordered by edge id."""
    chords = tuple(compress(range(g.m), f.is_chord))
    return FundamentalCycleBasis(tuple(_chord_cycle(f, g.tails[e], g.heads[e]) for e in chords), chords)


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
    if not cycle:
        raise ValidationError("empty cycle")
    return walk_gain(g, cycle + (cycle[0],))


def apply_switching(g: GainGraph, theta: SwitchingFunction) -> GainGraph:
    """Switch g by theta: each gain (u, v) becomes conj(theta(u)) * gain * theta(v).

    The mixed flag is kept only if every switched gain still lies in
    {1, i, -i}; switching by a function with -1 values can leave that set.
    """
    if theta.n != g.graph.n:
        raise ValidationError("switching function defined on a different vertex set")
    if theta.group != g.group:
        raise ValidationError("gain group mismatch")
    k = g.group.order
    th = (0, *theta.exps)
    exps = tuple((t - th[u] + th[v]) % k for u, v, t in zip(g.graph.tails, g.graph.heads, g.exps))
    return GainGraph(g.graph, g.group, exps, g.mixed_mode and 2 not in exps)


def _forest_arrays(g: GainGraph, f: SpanningForest):
    """f's arrays when g's normal form on f fits int64 arrays: f was walked
    by levels, and sums of n exponents below k stay below 2^62."""
    return f._arrays if f._arrays is not None and g.group.order * (g.graph.n + 1) < 1 << 62 else None


def _normal_form(g: GainGraph, f: SpanningForest) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex potentials on f, and the chord exponents of g normalised to f.

    ``pot[v]`` is the exponent of v's forest path to its root; switching by pot
    leaves chord (u, v), listed by edge id, with t_uv + pot[v] - pot[u]: the
    gain of its fundamental cycle.  Read it through ``_normal``, which keeps it.
    On a forest walked by levels the potentials come from pointer doubling:
    after j passes each vertex holds the sum of its 2^j nearest forest steps
    and points 2^j levels up, so ceil(log2(height)) passes reach every root.
    """
    k = g.group.order
    arrays = _forest_arrays(g, f)
    if arrays is not None:
        parent, _, _, _, is_chord, up_edge = arrays
        x = g._exps_column()
        step = np.append(x, 0)[up_edge]  # 0 at roots, whose up_edge is -1
        pot = np.where(np.arange(len(parent)) < parent, step, -step)
        up, height = parent, len(f._levels) - 1
        for _ in range((height - 1).bit_length()):
            pot = pot + pot[up]
            up = up[up]
        pot %= k
        tails, heads = g.graph._column_arrays()
        chords = (x + pot[heads] - pot[tails])[is_chord] % k
        return tuple(pot.tolist()), tuple(chords.tolist())
    exps, parent, parent_edge = g.exps, f.parent, f.parent_edge
    pot = [0] * (g.graph.n + 1)
    for v in f.bfs_order:
        p = parent[v]
        if p:
            x = exps[parent_edge[v]]
            pot[v] = (pot[p] + x if v < p else pot[p] - x) % k
    chords = tuple(
        (x + pot[v] - pot[u]) % k
        for u, v, x in compress(zip(g.graph.tails, g.graph.heads, exps), f.is_chord)
    )
    return tuple(pot), chords


def _normal(g: GainGraph, f: SpanningForest) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_normal_form(g, f)``, kept on g for the forest object f.

    A decision, a balance test and a profile on one graph and forest then
    share one pass.  Another forest (a ``forest=`` argument, a
    ``vertex_order`` forest, or an equal graph's default forest) is a
    different object and gets its own pass, which replaces the kept one.
    """
    kept = g._normal
    if kept is None or kept[0] is not f:
        kept = g._normal = (f, _normal_form(g, f))
    return kept[1]


def normalize_to_forest(g: GainGraph, f: SpanningForest | None = None):
    """Switch g so that every forest edge has gain 1.

    Returns ``(normalized, theta)`` where theta(root) = 1 on each component
    and theta(w) is the gain of the forest path from w to its root.  Any two
    switchings achieving all-1 forest gains differ by a constant per
    component, so the normalized graph is canonical for the given forest.
    """
    if f is None:
        f = spanning_forest(g.graph)
    pot, _ = _normal(g, f)
    theta = SwitchingFunction._unchecked(g.group, pot[1:])
    return apply_switching(g, theta), theta


def switching_equivalent(a: GainGraph, b: GainGraph, forest: SpanningForest | None = None):
    """Decide switching equivalence of two gain graphs on the same underlying graph.

    Returns a witness ``SwitchingFunction`` theta, checked to switch every
    gain of a to the gain of b, when the graphs are equivalent; ``None``
    when they share the underlying graph but are inequivalent.  Raises
    ``ValidationError`` when they do not share it (or their groups differ).
    """
    if a.graph != b.graph or a.group != b.group:
        raise ValidationError("different underlying graph (or gain group); equivalence undefined")
    f = forest if forest is not None else spanning_forest(a.graph)
    pot_a, chords_a = _normal(a, f)
    pot_b, chords_b = _normal(b, f)
    if chords_a != chords_b:
        return None
    k = a.group.order
    if _forest_arrays(a, f) is not None:
        shift = (np.array(pot_a, dtype=np.int64) - np.array(pot_b, dtype=np.int64)) % k
        tails, heads = a.graph._column_arrays()
        verified = np.array_equal((a._exps_column() - shift[tails] + shift[heads]) % k, b._exps_column())
        shift = shift.tolist()
    else:
        shift = [(x - y) % k for x, y in zip(pot_a, pot_b)]
        verified = all((x - shift[u] + shift[v]) % k == y for u, v, x, y in zip(a.graph.tails, a.graph.heads, a.exps, b.exps))
    if not verified:  # exact check; cannot fail
        raise AssertionError("internal error: switching witness failed to verify")
    return SwitchingFunction._unchecked(a.group, tuple(shift[1:]))


def first_profile_difference(a: GainGraph, b: GainGraph, forest: SpanningForest | None = None):
    """First basis cycle whose gains differ, as ``(cycle, gain_a, gain_b)``.

    Returns ``None`` when the profiles agree.  Preconditions as in
    ``switching_equivalent``; raises if the underlying graphs differ.
    """
    if a.graph != b.graph or a.group != b.group:
        raise ValidationError("inputs do not share an underlying graph")
    f = forest if forest is not None else spanning_forest(a.graph)
    _, chords_a = _normal(a, f)
    _, chords_b = _normal(b, f)
    chord_ids = compress(range(a.graph.m), f.is_chord)
    for e, x, y in zip(chord_ids, chords_a, chords_b):
        if x != y:
            cycle = _chord_cycle(f, a.graph.tails[e], a.graph.heads[e])
            return cycle, GainExponent(a.group, x), GainExponent(a.group, y)
    return None


def _pieces(g: SimpleGraph, exps, weights, longest: int) -> list[list[tuple]]:
    """Per vertex v, each piece that can cover v as its least vertex: ``(mask, coef, vertices)``.

    A piece is an edge vw with w > v (coef -1) or a cycle through v on
    vertices above v (coef -2 Re of its gain, that is -``weights[t]``, t
    being the cycle's exponent sum mod len(weights), ``exps[e]`` being the
    exponent of edge id e in its u < v orientation); ``mask`` has bit u set
    for each of its vertices u.  Each cycle is listed once, from its least
    vertex, with second vertex < last vertex, in depth-first order over
    ascending neighbors; a path stops growing once no neighbor of the anchor
    above the second vertex is left off it, as it could no longer close, or
    once it has ``longest`` vertices.  Cycles of coef 0 add nothing and are
    left out.  The callers check their own caps first.
    """
    n = g.n
    k = len(weights)
    out: list[dict[int, int]] = [{} for _ in range(n + 1)]  # neighbor -> exponent, ascending
    for u, v, x in zip(g.tails, g.heads, exps):
        out[u][v] = x
        out[v][u] = -x
    pieces: list[list] = [[] for _ in range(n + 1)]

    def grow(path: list[int], mask: int, t: int, left: int) -> None:
        # left: the neighbors of the anchor path[0] above path[1] not yet on the path
        anchor, second, last = path[0], path[1], path[-1]
        if len(path) >= 3 and second < last and anchor in out[last]:
            w = weights[(t + out[last][anchor]) % k]
            if w:
                pieces[anchor].append((mask, -w, tuple(path)))
        if left and len(path) < longest:
            for y, x in out[last].items():
                if y > anchor and not mask >> y & 1:
                    path.append(y)
                    grow(path, mask | 1 << y, t + x, left - (y > second and y in out[anchor]))
                    path.pop()

    for v in range(1, n + 1):
        pieces[v] += [(1 << v | 1 << w, -1, (v, w)) for w in out[v] if w > v]
        for y, x in out[v].items():
            if y > v:
                left = sum(z > y for z in out[v])
                if left:
                    grow([v, y], 1 << v | 1 << y, x, left)
    return pieces


def enumerate_cycles(g: SimpleGraph, max_vertices: int = DEFAULT_CYCLE_CAP) -> list[tuple[int, ...]]:
    """All simple cycles, each once, as canonical vertex tuples.

    A cycle is listed starting at its smallest vertex, with the traversal
    direction fixed by second vertex < last vertex: the cycles among
    ``_pieces``, by least vertex.  Exponential in general; refuses graphs
    with more than ``max_vertices`` vertices.
    """
    _check_cap("cycle enumeration", g.n, max_vertices, "vertices")
    return [verts for anchored in _pieces(g, (0,) * g.m, (1,), g.n) for _, _, verts in anchored if len(verts) > 2]


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
    _, chords = _normal(g, spanning_forest(g.graph))
    return not any(chords)


def _chord_use(g: SimpleGraph, f: SpanningForest) -> tuple[np.ndarray, np.ndarray]:
    """``(use, private)`` for any forest of g, kept on f: ``use[x]``
    counts the chord paths through forest edge x (named by its child end),
    and ``private[j]`` is True when the path of chord j (the j-th chord by
    edge id) has a forest edge that no other chord path uses.

    A forest not walked by levels walks each chord's path once
    (``_chord_walk``).  On one walked by levels no path is walked.
    A forest edge lies on as many chord paths as its subtree holds chord
    ends, less twice the chord LCAs in it.  So each chord adds 1 at both
    ends and -2 at its LCA, and the sums are taken up the forest one level
    at a time.  Chord ids 1..r summed the same way name, on each edge of
    count 1, the one chord through it.  The LCAs come from pointer-doubling
    tables: ``ups[j]`` sends each vertex 2^j levels up (0 above the root).
    Lifting the deeper end of a chord by the depth difference, then both
    ends by each 2^j, largest first, that keeps them apart, leaves them just
    below the LCA.
    """
    if f._use is None and f._arrays is None:
        paths = [[x for x, _ in _chord_walk(f, u, v)] for u, v in compress(zip(g.tails, g.heads), f.is_chord)]
        use = [0] * (g.n + 1)
        for path in paths:
            for x in path:
                use[x] += 1
        private = [any(use[x] == 1 for x in path) for path in paths]
        f._use = np.array(use, dtype=np.int64), np.array(private, dtype=bool)
    elif f._use is None:
        parent, _, depth, _, is_chord, _ = f._arrays
        levels = f._levels
        height = len(levels) - 1
        tails, heads = g._column_arrays()
        u, v = tails[is_chord], heads[is_chord]
        ups = [parent]
        for _ in range(height.bit_length() - 1):
            ups.append(ups[-1][ups[-1]])
        deeper = depth[u] >= depth[v]
        a, b = np.where(deeper, u, v), np.where(deeper, v, u)
        lift = depth[a] - depth[b]
        for j, up in enumerate(ups):
            a = np.where(lift >> j & 1, up[a], a)
        for up in reversed(ups):
            apart = up[a] != up[b]
            a, b = np.where(apart, up[a], a), np.where(apart, up[b], b)
        lca = np.where(a == b, a, parent[a])
        size, ids = len(parent), np.arange(1, len(u) + 1)
        use = np.bincount(u, minlength=size) + np.bincount(v, minlength=size) - 2 * np.bincount(lca, minlength=size)
        named = np.zeros(size, dtype=np.int64)
        np.add.at(named, u, ids)
        np.add.at(named, v, ids)
        np.add.at(named, lca, -2 * ids)
        for level in reversed(levels[1:]):
            np.add.at(use, parent[level], use[level])
            np.add.at(named, parent[level], named[level])
        private = np.zeros(len(u) + 1, dtype=bool)
        private[named[use == 1]] = True
        f._use = use, private[1:]
    return f._use


def _chord_cycles_disjoint(g: SimpleGraph, f: SpanningForest) -> bool:
    """True when the fundamental cycles of f share no edge: exactly when g is a cactus.

    In a cactus each chord's cycle is the one cycle of its block.
    Conversely, when the cycles are disjoint every cycle of g, a sum of
    them, is one of them, so no block holds a theta (whose third cycle is
    the sum of the other two).  Only forest edges can be shared, and
    ``_chord_use`` counts the chord paths through each.  Each of the r
    chord paths has at least two forest edges (g has no parallel edges),
    so disjoint paths need 2r <= n - c = m - r: a graph with 3r > m is
    refused before any path is looked at.
    """
    r = f.is_chord.count(True) if f._arrays is None else np.count_nonzero(f._arrays[4])
    if 3 * r > g.m:
        return False
    return bool(_chord_use(g, f)[0].max(initial=0) <= 1)


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
    _, chords = _normal(g, f)
    if not any(chords):
        return BALANCED
    if not _chord_cycles_disjoint(g.graph, f):
        return MIXED_PROFILE
    k = g.group.order
    if all(2 * x == k for x in chords):
        return NEGATIVE
    if all(4 * x in (k, 3 * k) for x in chords):
        return IMAGINARY
    return MIXED_PROFILE


def bipartition(g: SimpleGraph):
    """A 2-coloring as ``(side0, side1)`` vertex sets, or ``None`` if odd cycles exist.

    The sides are the depth parities in the default forest, a breadth-first
    search from each component's smallest vertex; forest edges join
    opposite parities, so the graph is bipartite iff every chord does too.
    """
    f = spanning_forest(g)
    depth = f.depth
    if any((depth[u] + depth[v]) % 2 == 0 for u, v in compress(zip(g.tails, g.heads), f.is_chord)):
        return None
    return tuple({v for v in range(1, g.n + 1) if depth[v] % 2 == side} for side in (0, 1))


def equivalent_to_negation(g: GainGraph) -> bool:
    """True iff g is switching equivalent to its negation.

    This holds exactly when the underlying graph is bipartite, so the check
    is purely structural and valid for every gain group.
    """
    return bipartition(g.graph) is not None


def negation_witness(g: GainGraph) -> SwitchingFunction | None:
    """A theta with ``apply_switching(g, theta) == negate(g)``, or None.

    ``switching_equivalent(g, negate(g))``: negation adds k/2 to every forest
    step, so theta is 1 at even depth and -1 at odd depth (``bipartition``'s
    sides), and None when a chord joins two depths of equal parity.  The
    group order must be even, as ``negate`` checks.
    """
    return switching_equivalent(g, negate(g))
