"""Graph automorphisms acting on gain graphs and switching classes.

The action relabels gains along an automorphism of the underlying graph:
``act(f, g)`` has gain(u, v) equal to g's gain(f(u), f(v)).  It descends to
switching classes, and two gain graphs on the same underlying graph are
switching isomorphic exactly when their classes lie in the same orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InstanceTooLargeError, ValidationError
from .gaincore import GainGraph, SimpleGraph, SwitchingFunction, build_gain_graph
from .switching import _normal_form, spanning_forest, switching_equivalent

__all__ = [
    "VertexPermutation",
    "AutGroup",
    "automorphisms",
    "gain_automorphisms",
    "mixed_aut_decomposition",
    "act",
    "switching_isomorphic",
    "orbit_of_class",
    "underlying_isomorphism",
    "generating_set",
]

DEFAULT_AUT_CAP = 10
DEFAULT_ORBIT_EDGE_CAP = 32


@dataclass(frozen=True)
class VertexPermutation:
    """A bijection of 1..n; ``image[v - 1]`` is the image of vertex v."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValidationError("image is not a permutation of 1..n")

    def __call__(self, v: int) -> int:
        return self.image[v - 1]

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
        return VertexPermutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.image, start=1))


@dataclass(frozen=True)
class AutGroup:
    """An automorphism group given by its explicit element list (desk scale)."""

    n: int
    elements: tuple[VertexPermutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, f: VertexPermutation) -> bool:
        return f in set(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _isomorphisms(a: SimpleGraph, b: SimpleGraph, max_vertices: int, search: str):
    """Yield every isomorphism from a onto b, in increasing order of image tuples.

    Backtracking on the vertices of a with degree pruning; automorphisms are
    the case a = b.
    """
    if a.n > max_vertices:
        raise InstanceTooLargeError(
            f"{search} search capped at {max_vertices} vertices, graph has {a.n}"
        )
    n = a.n
    deg_a = [a.degree(v) for v in range(n + 1)]
    deg_b = [b.degree(w) for w in range(b.n + 1)]
    if sorted(deg_a) != sorted(deg_b):  # also settles n and m
        return
    adj_b = [set(b.neighbors(w)) for w in range(n + 1)]
    earlier = [[(u, a.has_edge(u, v)) for u in range(1, v)] for v in range(n + 1)]
    image = [0] * (n + 1)
    used = [False] * (n + 1)

    def rec(v: int):
        if v > n:
            yield VertexPermutation(tuple(image[1:]))
            return
        for w in range(1, n + 1):
            if used[w] or deg_a[v] != deg_b[w]:
                continue
            nbrs = adj_b[w]
            if any((image[u] in nbrs) != adjacent for u, adjacent in earlier[v]):
                continue
            image[v] = w
            used[w] = True
            yield from rec(v + 1)
            used[w] = False

    yield from rec(1)


def automorphisms(g: SimpleGraph, max_vertices: int = DEFAULT_AUT_CAP) -> AutGroup:
    """All automorphisms of a simple graph, by backtracking with degree pruning."""
    return AutGroup(g.n, tuple(_isomorphisms(g, g, max_vertices, "automorphism")))


def _moved_exps(f: VertexPermutation, g: GainGraph):
    """Yield, per edge (u, v) of g, the exponent of g's gain on f(u) -> f(v).

    f must be an automorphism of g's underlying graph.
    """
    exps, index, k, image = g.exps, g.graph.edge_index, g.group.order, f.image
    for u, v in g.graph.edges:
        x, y = image[u - 1], image[v - 1]
        yield exps[index[x, y]] if x < y else -exps[index[y, x]] % k


def _preserves_gains(f: VertexPermutation, g: GainGraph) -> bool:
    return all(map(int.__eq__, _moved_exps(f, g), g.exps))


def _gain_subgroup(aut: AutGroup, g: GainGraph) -> AutGroup:
    """The elements of aut, a group of g's underlying graph, that preserve every gain."""
    return AutGroup(aut.n, tuple(f for f in aut.elements if _preserves_gains(f, g)))


def gain_automorphisms(g: GainGraph, max_vertices: int = DEFAULT_AUT_CAP) -> AutGroup:
    """The subgroup of graph automorphisms that preserve every gain exactly."""
    return _gain_subgroup(automorphisms(g.graph, max_vertices), g)


def mixed_aut_decomposition(g: GainGraph, max_vertices: int = DEFAULT_AUT_CAP):
    """Automorphism groups of a mixed graph, its directed part, and its undirected part.

    Returns ``(aut_underlying, aut_directed, aut_undirected)`` where the
    directed part keeps the edges with gain != 1 (with their gains) and the
    undirected part keeps the gain-1 edges as a plain graph.  The gain
    automorphisms of g equal the intersection of the first two groups and
    also the intersection of the last two; both identities are verified here.
    """
    if not g.mixed_mode:
        raise ValidationError("the decomposition is defined for mixed graphs")
    n = g.graph.n
    directed = [(u, v, t) for (u, v), t in zip(g.graph.edges, g.exps) if t]
    undirected = [e for e, t in zip(g.graph.edges, g.exps) if not t]
    aut_g = automorphisms(g.graph, max_vertices)
    aut_s = gain_automorphisms(
        build_gain_graph(n, g.group, directed, mixed_mode=True), max_vertices
    )
    aut_u = automorphisms(SimpleGraph(n, undirected), max_vertices)
    aut_mixed = {f.image for f in _gain_subgroup(aut_g, g)}
    inter_gs = {f.image for f in aut_g} & {f.image for f in aut_s}
    inter_su = {f.image for f in aut_s} & {f.image for f in aut_u}
    if aut_mixed != inter_gs or aut_mixed != inter_su:
        raise AssertionError("internal error: automorphism intersection identities failed")
    return aut_g, aut_s, aut_u


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
    return GainGraph._from_exps(g.graph, g.group, exps, g.mixed_mode)


def switching_isomorphic(a: GainGraph, b: GainGraph, max_vertices: int = DEFAULT_AUT_CAP):
    """Search for (f, theta) with ``apply_switching(act(f, a), theta) == b``.

    The underlying graphs must coincide (relabel beforehand if they are
    merely isomorphic).  Returns None when no automorphism works; switching
    isomorphic graphs are exactly those whose classes share an orbit.
    """
    if a.graph != b.graph or a.group != b.group:
        raise ValidationError("inputs do not share an underlying graph")
    forest = spanning_forest(a.graph)
    for f in _isomorphisms(a.graph, a.graph, max_vertices, "automorphism"):
        theta = switching_equivalent(act(f, a), b, forest=forest)
        if theta:
            return f, theta
    return None


def orbit_of_class(
    g: GainGraph,
    max_vertices: int = DEFAULT_AUT_CAP,
    max_edges: int = DEFAULT_ORBIT_EDGE_CAP,
):
    """Representatives of the orbit of [g] under the automorphism action.

    One gain graph per distinct switching class reachable as act(f, g),
    keyed by basis gain profile and sorted by it for determinism.
    """
    if g.graph.m > max_edges:
        raise InstanceTooLargeError(
            f"orbit computation capped at {max_edges} edges, graph has {g.graph.m}"
        )
    forest = spanning_forest(g.graph)
    reps: dict[tuple[int, ...], GainGraph] = {}
    for f in automorphisms(g.graph, max_vertices):
        moved = act(f, g)
        _, key = _normal_form(moved, forest)
        if key not in reps:
            reps[key] = moved
    return [reps[key] for key in sorted(reps)]


def underlying_isomorphism(a: SimpleGraph, b: SimpleGraph, max_vertices: int = DEFAULT_AUT_CAP):
    """An isomorphism from a onto b as a VertexPermutation, or None.

    The first hit of the backtracking search; intended for the CLI so that
    gain graphs given with different labelings can be aligned before the
    switching-isomorphism search.
    """
    if a.n != b.n or a.m != b.m:
        return None
    return next(_isomorphisms(a, b, max_vertices, "isomorphism"), None)


def generating_set(group: AutGroup) -> list[VertexPermutation]:
    """A small generating set, grown greedily from the element list."""
    closure = {tuple(range(1, group.n + 1))}
    gens: list[tuple[int, ...]] = []
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
    return [VertexPermutation(img) for img in gens]
