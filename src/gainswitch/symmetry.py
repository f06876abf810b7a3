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

    @classmethod
    def _unchecked(cls, image: tuple[int, ...]) -> "VertexPermutation":
        """Wrap an image known to be a permutation of 1..n, skipping the check."""
        f = object.__new__(cls)
        object.__setattr__(f, "image", image)
        return f

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
        return f in self.elements

    def __iter__(self):
        return iter(self.elements)


def _isomorphisms(a: SimpleGraph | GainGraph, b: SimpleGraph | GainGraph, max_vertices: int, search: str):
    """Yield every isomorphism from a onto b, in increasing order of image tuples.

    a and b are both simple graphs (k = 1, every exponent 0) or both gain
    graphs over one group.  Backtracking on a's vertices, one level per vertex
    on an explicit stack; vertex w of b is bit w - 1.  A level's candidates are
    one int: v's degree class minus the used images, ANDed over each earlier u
    with masks[t] at u's image, t = exp_a(u -> v) (k if not adjacent), and
    taken lowest bit first.
    """
    if isinstance(a, GainGraph):
        k, exps_a, exps_b, a, b = a.group.order, a.exps, b.exps, a.graph, b.graph
    else:
        k, exps_a, exps_b = 1, (0,) * a.m, (0,) * b.m
    if a.n > max_vertices:
        raise InstanceTooLargeError(
            f"{search} search capped at {max_vertices} vertices, graph has {a.n}"
        )
    n = a.n
    deg_a = [a.degree(v) for v in range(n + 1)]
    deg_b = [b.degree(w) for w in range(b.n + 1)]
    if sorted(deg_a) != sorted(deg_b):  # also settles n and m
        return
    if n == 0:
        yield VertexPermutation._unchecked(())
        return
    masks = [[0] * (n + 1) for _ in range(k)]  # masks[t][x]: the w with exp_b(x -> w) = t
    for (x, w), t in zip(b.edges, exps_b):
        masks[t][x] |= 1 << (w - 1)
        masks[-t % k][w] |= 1 << (x - 1)
    masks.append([(1 << n) - 1 - sum(col) for col in zip(*masks)])  # masks[k]: the non-neighbors
    degree_class = [sum(1 << (w - 1) for w in range(1, n + 1) if deg_b[w] == d) for d in deg_a]
    # per level v: (u, mask table) for each earlier vertex u
    exp_a = dict(zip(a.edges, exps_a))
    earlier = [[(u, masks[exp_a.get((u, v), k)]) for u in range(1, v)] for v in range(n + 1)]
    image = [0] * (n + 1)
    cands = [0] * (n + 1)
    cands[1] = degree_class[1]
    used = 0
    v = 1
    while v:
        c = cands[v]
        if not c:  # level exhausted: free the previous level's image
            v -= 1
            if v:
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


def gain_automorphisms(g: GainGraph, max_vertices: int = DEFAULT_AUT_CAP) -> AutGroup:
    """The graph automorphisms that preserve every gain exactly, by one gain-pruned search."""
    return AutGroup(g.graph.n, tuple(_isomorphisms(g, g, max_vertices, "automorphism")))


def mixed_aut_decomposition(g: GainGraph, max_vertices: int = DEFAULT_AUT_CAP):
    """Automorphism groups of a mixed graph, its directed part, and its undirected part.

    Returns ``(aut_underlying, aut_directed, aut_undirected)`` where the
    directed part keeps the edges with gain != 1 (with their gains) and the
    undirected part keeps the gain-1 edges as a plain graph.  The gain
    automorphisms of g equal the intersection of the first two groups and
    also the intersection of the last two; both identities are verified here.
    """
    return _mixed_aut_parts(g, max_vertices)[:3]


def _mixed_aut_parts(g: GainGraph, max_vertices: int):
    """``mixed_aut_decomposition``'s three groups, then g's gain automorphisms."""
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
    aut_gain = gain_automorphisms(g, max_vertices)
    aut_mixed = {f.image for f in aut_gain}
    inter_gs = {f.image for f in aut_g} & {f.image for f in aut_s}
    inter_su = {f.image for f in aut_s} & {f.image for f in aut_u}
    if aut_mixed != inter_gs or aut_mixed != inter_su:
        raise AssertionError("internal error: automorphism intersection identities failed")
    return aut_g, aut_s, aut_u, aut_gain


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
    """A small generating set, grown greedily from the element list.

    The closure grows by left cosets: when a generator joins, the old closure
    H is a group, and a breadth-first search over coset representatives x
    (from the identity) adds the whole coset y∘H for each y = s∘x, s a
    generator, that the closure lacks.
    """
    identity = tuple(range(1, group.n + 1))
    closure = {identity}
    gens: list[tuple[int, ...]] = []
    lookups = []  # per generator s, w -> s(w)
    for f in group.elements:
        if f.image in closure:
            continue
        gens.append(f.image)
        lookups.append(((0,) + f.image).__getitem__)
        old = list(closure)
        reps = [identity]
        for x in reps:
            for s in lookups:
                y = tuple(map(s, x))
                if y not in closure:
                    y_of = ((0,) + y).__getitem__
                    closure.update(tuple(map(y_of, h)) for h in old)
                    reps.append(y)
    return [VertexPermutation(img) for img in gens]
