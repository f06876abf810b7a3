"""Graph automorphisms acting on gain graphs and switching classes.

The action relabels gains along an automorphism of the underlying graph:
``act(f, g)`` has gain(u, v) equal to g's gain(f(u), f(v)).  It descends to
switching classes, and two gain graphs on the same underlying graph are
switching isomorphic exactly when their classes lie in the same orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from operator import sub

from .errors import ValidationError
from .gaincore import GainGraph, SimpleGraph, _check_cap, _exact_int, _vertex, build_gain_graph
from .switching import _normal, spanning_forest, switching_equivalent

__all__ = [
    "VertexPermutation",
    "AutGroup",
    "automorphisms",
    "mixed_aut_decomposition",
    "act",
    "switching_isomorphic",
    "orbit_of_class",
    "underlying_isomorphism",
]

DEFAULT_AUT_CAP = 10
DEFAULT_ORBIT_EDGE_CAP = 32


@dataclass(frozen=True)
class VertexPermutation:
    """A bijection of 1..n; ``image[v - 1]`` is the image of vertex v."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            image = tuple(_exact_int(w, "image entry") for w in self.image)
        except TypeError:  # not iterable
            image = None
        if image is None or sorted(image) != list(range(1, len(image) + 1)):
            raise ValidationError("image is not a permutation of 1..n")
        object.__setattr__(self, "image", image)

    @classmethod
    def _unchecked(cls, image: tuple[int, ...]) -> "VertexPermutation":
        """Wrap an image known to be a permutation of 1..n, skipping the check."""
        f = object.__new__(cls)
        object.__setattr__(f, "image", image)
        return f

    def __call__(self, v: int) -> int:
        return self.image[_vertex(v, len(self.image)) - 1]

    @property
    def n(self) -> int:
        return len(self.image)

    @staticmethod
    def identity(n: int) -> "VertexPermutation":
        return VertexPermutation(tuple(range(1, n + 1)))

    def compose(self, other: "VertexPermutation") -> "VertexPermutation":
        """The permutation v -> self(other(v))."""
        if other.n != self.n:
            raise ValidationError("permutations act on different vertex sets")
        return VertexPermutation(tuple(self.image[w - 1] for w in other.image))

    def inverse(self) -> "VertexPermutation":
        inv = [0] * self.n
        for v, w in enumerate(self.image, start=1):
            inv[w - 1] = v
        return VertexPermutation._unchecked(tuple(inv))

    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.image, start=1))


@dataclass(frozen=True)
class AutGroup:
    """An automorphism group as a stabiliser chain with base 1..n (Sims 1970).

    ``cosets[i - 1]`` maps each point j of the orbit of i under the
    pointwise stabiliser of 1..i-1 to the inverse of one element u_j of that
    stabiliser with u_j(i) = j, as a 0-prefixed image tuple.  ``generators``
    are the strong generators in the order found, and ``tables`` the search
    tables the chain was built from.  Equal groups have equal generators, so
    ``==`` and ``hash`` read n and the generators only.
    """

    n: int
    generators: tuple[VertexPermutation, ...]
    cosets: tuple[dict[int, tuple[int, ...]], ...] = field(compare=False, repr=False)
    tables: tuple = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return prod(map(len, self.cosets))

    @cached_property
    def elements(self) -> tuple[VertexPermutation, ...]:
        """Every element in increasing order of image tuples, listed on first use."""
        return tuple(_search(self.tables))

    def __contains__(self, f: VertexPermutation) -> bool:
        """Sift f through the transversals: strip u_j level by level."""
        if f.n != self.n:
            return False
        image = f.image
        for i, orbit in enumerate(self.cosets, start=1):
            j = image[i - 1]
            if j != i:
                if j not in orbit:
                    return False
                image = tuple(map(orbit[j].__getitem__, image))
        return True

    def __iter__(self):
        return iter(self.elements)


def _masks(a: SimpleGraph | GainGraph, b: SimpleGraph | GainGraph, max_vertices: int, search: str):
    """``(degree_class, masks)`` for searches a -> b, or None when the degree sequences differ.

    a and b are both simple graphs (k = 1, every exponent 0) or both gain
    graphs over one group; vertex w of b is bit w - 1.  ``degree_class[v]``
    holds the vertices of b of v's degree, ``masks[t][x]`` (t < k) the w
    with exp_b(x -> w) = t, and ``masks[k][x]`` the non-neighbours of x.
    """
    if isinstance(a, GainGraph):
        k, exps_b, a, b = a.group.order, b.exps, a.graph, b.graph
    else:
        k, exps_b = 1, (0,) * b.m
    _check_cap(f"{search} search", a.n, max_vertices, "vertices")
    n = a.n
    offsets_a, offsets_b = a.csr[0], b.csr[0]
    deg_a = list(map(sub, offsets_a[1:], offsets_a))
    deg_b = list(map(sub, offsets_b[1:], offsets_b))
    if sorted(deg_a) != sorted(deg_b):  # also settles n and m
        return None
    masks = [[0] * (n + 1) for _ in range(k)]
    for x, w, t in zip(b.tails, b.heads, exps_b):
        masks[t][x] |= 1 << (w - 1)
        masks[-t % k][w] |= 1 << (x - 1)
    masks.append([(1 << n) - 1 - sum(col) for col in zip(*masks)])
    of_degree: dict[int, int] = {}
    for w in range(1, n + 1):
        of_degree[deg_b[w]] = of_degree.get(deg_b[w], 0) | 1 << (w - 1)
    return [of_degree.get(d, 0) for d in deg_a], masks


def _tables(a: SimpleGraph | GainGraph, b: SimpleGraph | GainGraph, max_vertices: int, search: str):
    """The search tables for isomorphisms a -> b, or None when the degree sequences differ.

    Returns ``(n, degree_class, earlier)`` with ``degree_class`` as in
    ``_masks``; ``earlier[v]`` pairs each u < v with the mask table of
    t = exp_a(u -> v), k if u and v are not adjacent.
    """
    found = _masks(a, b, max_vertices, search)
    if found is None:
        return None
    degree_class, masks = found
    graph, exps_a = (a.graph, a.exps) if isinstance(a, GainGraph) else (a, (0,) * a.m)
    offsets, neighbours, edge_ids = graph.csr
    n, outside = graph.n, masks[-1]
    # per level v: (u, mask table) for each earlier vertex u
    earlier = [[]]
    for v in range(1, n + 1):
        row = [outside] * (v - 1)  # index u - 1
        for i in range(offsets[v], offsets[v + 1]):
            u = neighbours[i]
            if u > v:  # the row is sorted: the earlier neighbours come first
                break
            row[u - 1] = masks[exps_a[edge_ids[i]]]
        earlier.append(list(enumerate(row, start=1)))
    return n, degree_class, earlier


def _search(tables, pinned: tuple[int, ...] = (), restrict: int = -1):
    """Yield the isomorphisms of ``tables`` that extend ``pinned``, in increasing order of image tuples.

    ``pinned`` holds the images of vertices 1..i-1 (fewer than n of them,
    and a partial isomorphism) and level i takes only images in the bitmask
    ``restrict``.  Backtracking on levels i..n on an explicit stack: a
    level's candidates are one int, v's degree class minus the used images,
    ANDed over each earlier u with its mask table at u's image, and taken
    lowest bit first.
    """
    n, degree_class, earlier = tables
    if n == 0:
        yield VertexPermutation._unchecked(())
        return
    image = [0, *pinned] + [0] * (n - len(pinned))
    used = sum(map((1).__lshift__, pinned)) >> 1  # bit w - 1 per pinned image w
    top = v = len(pinned) + 1
    c = degree_class[v] & ~used & restrict
    for u, table in earlier[v]:
        c &= table[image[u]]
    cands = [0] * (n + 1)
    cands[v] = c
    while v >= top:
        c = cands[v]
        if not c:  # level exhausted: free the previous level's image
            v -= 1
            if v >= top:
                used ^= 1 << (image[v] - 1)
            continue
        low = c & -c
        cands[v] = c ^ low
        image[v] = low.bit_length()
        if v == n:
            yield VertexPermutation._unchecked(tuple(image[1:]))
            continue
        used |= low
        v += 1
        c = degree_class[v] & ~used
        for u, table in earlier[v]:
            c &= table[image[u]]
        cands[v] = c


def automorphisms(g: SimpleGraph | GainGraph, max_vertices: int = DEFAULT_AUT_CAP) -> AutGroup:
    """The automorphism group of a simple graph, or of a gain graph's gains
    (pruned by the gains), as a stabiliser chain."""
    return _automorphism_chain(_tables(g, g, max_vertices, "automorphism"))


def _moved_exps(f: VertexPermutation, g: GainGraph):
    """Yield, per edge (u, v) of g, the exponent of g's gain on f(u) -> f(v).

    f must be an automorphism of g's underlying graph.
    """
    exps, index, k, image = g.exps, g.graph.edge_index, g.group.order, f.image
    for u, v in zip(g.graph.tails, g.graph.heads):
        x, y = image[u - 1], image[v - 1]
        yield exps[index[x, y]] if x < y else -exps[index[y, x]] % k


def _meet(s, t):
    """The tables of Aut(graph of s) ∩ Aut(graph of t), for automorphism tables on one vertex set.

    A permutation passes them iff it passes s and t: degree classes ANDed, ``earlier`` lists joined.
    """
    (n, class_s, earlier_s), (_, class_t, earlier_t) = s, t
    return n, list(map(int.__and__, class_s, class_t)), list(map(list.__add__, earlier_s, earlier_t))


def _automorphism_chain(tables) -> AutGroup:
    """The automorphisms of search tables as a stabiliser chain, from first-solution runs of one search.

    Levels i = n, ..., 1: while some automorphism fixes 1..i-1 and maps i
    outside the orbit of i under the generators so far, the first one found
    joins them and the orbit grows by BFS.  That is the least element outside
    the group generated so far, so the generators are the greedy generating
    set of the listed group, in order (equal groups, equal generators); the order is
    the product of the orbit sizes.
    """
    n, degree_class, _ = tables
    gens: list[VertexPermutation] = []
    inverses: list[tuple[int, ...]] = []
    cosets: list[dict[int, tuple[int, ...]]] = []
    for i in range(n, 0, -1):
        pinned = tuple(range(1, i))
        orbit = {i: tuple(range(n + 1))}
        outside = (1 << n) - (1 << i)  # i+1..n less the orbit; 1..i-1 are pinned
        queue = [i]
        while True:
            for p in queue:  # BFS: u_q^-1 = u_p^-1 after s^-1, for q = s(p)
                for s, inv in zip(gens, inverses):
                    q = s.image[p - 1]
                    if q not in orbit:
                        orbit[q] = (0, *map(orbit[p].__getitem__, inv))
                        outside ^= 1 << (q - 1)
                        queue.append(q)
            if not outside & degree_class[i]:
                break
            f = next(_search(tables, pinned, outside), None)
            if f is None:
                break
            gens.append(f)
            inverses.append(f.inverse().image)
            queue = list(orbit)
        cosets.append(orbit)
    return AutGroup(n, tuple(gens), tuple(reversed(cosets)), tables)


def _mixed_parts(g: GainGraph) -> tuple[GainGraph, SimpleGraph]:
    """A mixed graph's directed part (gain != 1, with gains) and undirected part (gain 1, plain)."""
    n = g.graph.n
    arcs = list(zip(g.graph.tails, g.graph.heads, g.exps))
    directed = [(u, v, t) for u, v, t in arcs if t]
    undirected = [(u, v) for u, v, t in arcs if not t]
    return build_gain_graph(n, g.group, directed, mixed_mode=True), SimpleGraph(n, undirected)


def _aut_chains(g: GainGraph, max_vertices: int) -> list[AutGroup]:
    """Groups of the underlying graph, the directed and undirected parts if g is mixed, and g.

    For a mixed graph, checks Aut(g) = Aut(G) ∩ Aut(directed) = Aut(directed)
    ∩ Aut(undirected): both meets' chains have g's chain's generators, and
    each of those sifts through the chains of G and both parts.
    """
    graphs = (g.graph, *_mixed_parts(g), g) if g.mixed_mode else (g.graph, g)
    chains = [_automorphism_chain(_tables(h, h, max_vertices, "automorphism")) for h in graphs]
    if g.mixed_mode:
        t_g, t_s, t_u = (c.tables for c in chains[:3])
        gens = chains[-1].generators
        if (_automorphism_chain(_meet(t_g, t_s)).generators != gens
                or _automorphism_chain(_meet(t_s, t_u)).generators != gens
                or not all(f in c for c in chains[:3] for f in gens)):
            raise AssertionError("internal error: automorphism intersection identities failed")
    return chains


def mixed_aut_decomposition(g: GainGraph, max_vertices: int = DEFAULT_AUT_CAP):
    """Automorphism groups of a mixed graph, its directed part, and its undirected part.

    Returns ``(aut_underlying, aut_directed, aut_undirected)`` where the
    directed part keeps the edges with gain != 1 (with their gains) and the
    undirected part keeps the gain-1 edges as a plain graph.  The gain
    automorphisms of g equal the intersection of the first two groups and
    also the intersection of the last two; both identities are verified on
    the groups' stabiliser chains.
    """
    if not g.mixed_mode:
        raise ValidationError("the decomposition is defined for mixed graphs")
    return tuple(_aut_chains(g, max_vertices)[:3])


def act(f: VertexPermutation, g: GainGraph) -> GainGraph:
    """Relabel gains along an automorphism: the result's gain(u, v) is g's gain(f(u), f(v)).

    ``f`` must be an automorphism of the underlying graph; anything else is
    rejected rather than producing a graph with silently moved edges.
    """
    if f.n != g.graph.n:
        raise ValidationError("permutation acts on a different vertex set")
    try:
        exps = tuple(_moved_exps(f, g))
    except KeyError:
        raise ValidationError("permutation is not an automorphism of the underlying graph") from None
    return GainGraph(g.graph, g.group, exps, g.mixed_mode)


def _switching_levels(g: SimpleGraph, exps_b: tuple[int, ...]):
    """Per level v of the switching search: v's earlier non-neighbours, and its groups.

    The earlier neighbours u of v are grouped by the component of the graph
    induced on 1..v-1 that holds them, in order of their least member.  A
    group is ``(u0, e0, rest, members)``: its first neighbour u0 with
    e0 = exp_b(u0 -> v), the other ``(u, exp_b(u -> v))``, and the vertices
    of its component, which shift with v's theta when v merges the component
    into the first group's.
    """
    offsets, neighbours, edge_ids = g.csr
    root = list(range(g.n + 1))
    members = [[v] for v in range(g.n + 1)]
    levels = [((), ())]
    for v in range(1, g.n + 1):
        groups: dict[int, list[tuple[int, int]]] = {}
        lo, hi = offsets[v], offsets[v + 1]
        row = neighbours[lo:hi]
        for u, e in zip(row, edge_ids[lo:hi]):
            if u < v:
                groups.setdefault(root[u], []).append((u, exps_b[e]))
        near = set(row)
        levels.append((
            [u for u in range(1, v) if u not in near],
            [(*pairs[0], pairs[1:], members[r]) for r, pairs in groups.items()],
        ))
        merged = [v]
        for r in groups:
            merged += members[r]
        for u in merged:
            root[u] = v
        members[v] = merged
    return levels


def _switching_search(a: GainGraph, b: GainGraph, max_vertices: int) -> tuple[int, ...] | None:
    """The least image tuple of an automorphism f of the shared underlying graph
    with act(f, a) switching equivalent to b, or None.

    act(f, a) switched by theta equals b iff exp_a(f(u) -> f(v)) =
    exp_b(u -> v) + theta(u) - theta(v) on every edge.  One backtracking
    search over f(1), ..., f(n), lowest image first, carries theta on the
    processed prefix with one free constant per prefix component.  A level's
    candidates are v's degree class minus the used images, ANDed with the
    non-neighbours of each earlier non-neighbour's image and, per group of
    earlier neighbours in one component, with the union over s = theta(v)
    (relative to that component) of the AND of ``masks[exp_b(u -> v) +
    theta(u) - s][f(u)]`` over the group.  The chosen image fixes s for each
    group; theta(v) takes the first group's, and every later group's
    component is shifted to agree, which merges it.  The search never
    branches over s, so the first leaf is the least such f.
    """
    degree_class, masks = _masks(b, a, max_vertices, "automorphism")  # one graph: never None
    n, k = a.graph.n, a.group.order
    if n == 0:
        return ()
    outside = masks[k]
    exp_a = [[0] * (n + 1) for _ in range(n + 1)]  # exp_a[x][w]: exp_a(x -> w)
    for x, w, t in zip(a.graph.tails, a.graph.heads, a.exps):
        exp_a[x][w], exp_a[w][x] = t, -t % k
    levels = _switching_levels(a.graph, b.exps)
    image = [0] * (n + 1)
    theta = [0] * (n + 1)
    shifted: list = [()] * (n + 1)  # per level: the (members, delta) its image applied
    cands = [0] * (n + 1)
    used = 0
    v = 1
    cands[1] = degree_class[1]
    while v:
        if shifted[v]:  # undo the merges of the level's previous image
            for members, delta in shifted[v]:
                for u in members:
                    theta[u] = (theta[u] - delta) % k
            shifted[v] = ()
        c = cands[v]
        if not c:  # level exhausted: free the previous level's image
            v -= 1
            if v:
                used ^= 1 << (image[v] - 1)
            continue
        low = c & -c
        cands[v] = c ^ low
        w = image[v] = low.bit_length()
        if v == n:
            return tuple(image[1:])
        groups = levels[v][1]
        if groups:
            u0, e0, _, _ = groups[0]
            s = theta[v] = (e0 + theta[u0] - exp_a[image[u0]][w]) % k
            if len(groups) > 1:
                shifts = []
                for u0, e0, _, members in groups[1:]:
                    delta = (s - e0 - theta[u0] + exp_a[image[u0]][w]) % k
                    if delta:
                        for u in members:
                            theta[u] = (theta[u] + delta) % k
                        shifts.append((members, delta))
                shifted[v] = shifts
        else:
            theta[v] = 0
        used |= low
        v += 1
        nonadjacent, groups = levels[v]
        c = degree_class[v] & ~used
        for u in nonadjacent:
            c &= outside[image[u]]
        for u0, e0, rest, _ in groups:
            if not c:
                break
            x0, base, union = image[u0], e0 + theta[u0], 0
            for t in range(k):  # t = exp_a(f(u0) -> w), so s = base - t
                hit = c & masks[t][x0]
                if hit:
                    s = base - t
                    for u, e in rest:
                        hit &= masks[(e + theta[u] - s) % k][image[u]]
                    union |= hit
            c = union
        cands[v] = c
    return None


def switching_isomorphic(a: GainGraph, b: GainGraph, max_vertices: int = DEFAULT_AUT_CAP):
    """Search for (f, theta) with ``apply_switching(act(f, a), theta) == b``.

    The underlying graphs must coincide (relabel beforehand if they are
    merely isomorphic).  f is the least automorphism of the underlying graph
    (by image tuple) that works, found by one search that carries theta; theta
    is ``switching_equivalent``'s witness for act(f, a) and b.  Returns None
    when no automorphism works; switching isomorphic graphs are exactly those
    whose classes share an orbit.
    """
    if a.graph != b.graph or a.group != b.group:
        raise ValidationError("inputs do not share an underlying graph")
    image = _switching_search(a, b, max_vertices)
    if image is None:
        return None
    f = VertexPermutation._unchecked(image)
    theta = switching_equivalent(act(f, a), b)
    if not theta:
        raise AssertionError("internal error: switching isomorphism failed to verify")
    return f, theta


def orbit_of_class(
    g: GainGraph,
    max_vertices: int = DEFAULT_AUT_CAP,
    max_edges: int = DEFAULT_ORBIT_EDGE_CAP,
):
    """Representatives of the orbit of [g] under the automorphism action.

    One gain graph act(f, g) per switching class in the orbit, by BFS over the
    underlying chain's generators, keyed by basis gain profile and sorted by it.
    """
    _check_cap("orbit computation", g.graph.m, max_edges, "edges")
    forest = spanning_forest(g.graph)
    generators = automorphisms(g.graph, max_vertices).generators
    reps = {_normal(g, forest)[1]: g}
    queue = [g]
    for h in queue:  # BFS over the classes: act(s, h) is act(f∘s, g) for h = act(f, g)
        for s in generators:
            moved = act(s, h)
            key = _normal(moved, forest)[1]
            if key not in reps:
                reps[key] = moved
                queue.append(moved)
    return [reps[key] for key in sorted(reps)]


def underlying_isomorphism(a: SimpleGraph, b: SimpleGraph, max_vertices: int = DEFAULT_AUT_CAP):
    """An isomorphism from a onto b as a VertexPermutation, or None.

    The first hit of the backtracking search; intended for the CLI so that
    gain graphs given with different labelings can be aligned before the
    switching-isomorphism search.
    """
    if a.n != b.n or a.m != b.m:
        return None
    tables = _tables(a, b, max_vertices, "isomorphism")
    return None if tables is None else next(_search(tables), None)
