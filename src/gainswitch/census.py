"""Counting and sizing switching-equivalence classes of mixed graphs.

A mixed orientation assigns each edge a gain from {1, i, -i}; two
orientations are equivalent exactly when they agree on a fundamental cycle
basis.  Edge e with gain i adds its signed incidence sigma_e on the basis
cycles to their exponents mod 4, and gain -i subtracts it.

The brute-force census keys every one of the 3^m assignments by its basis
gain profile: the keys of the low edges' settings are built once, and each
setting of the high edges shifts that shared array to key one chunk.  The
closed forms count without enumerating: cycles by their alpha vectors,
other graphs by multiplying class sizes over blocks, where a block that is
not a cycle is sized by a convolution over Z_4^r (one step per edge), and
2-connected plane graphs by sums over gamma matrices attached to the inner
faces, taken for every face-gain vector at once by a convolution over
Z_4^k (one step per face cell).

All counts are exact Python integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import InstanceTooLargeError, ValidationError
from .gaincore import GainExponent, GainGraph, SimpleGraph
from .switching import (
    _chord_cycles_disjoint,
    _normal_form,
    canonical_basis,
    cycle_gain,
    fundamental_cycles,
    spanning_forest,
)

__all__ = [
    "ClassCountVector",
    "Census",
    "Block",
    "FaceStructure",
    "GammaMatrix",
    "alpha_vector",
    "alpha_closed_form",
    "cycle_class_size",
    "class_count_bounds",
    "mixed_basis_profile",
    "brute_force_census",
    "cut_edge_lower_bound",
    "block_decompose",
    "induced_gain_graph",
    "class_size_by_blocks",
    "is_cactus",
    "parse_face_structure",
    "face_gains",
    "enumerate_gamma",
    "plane_class_size",
    "plane_class_count",
]

_LOW_DIGITS = 12  # the scan keys 3^12 orientations per chunk
_MAX_DENSE_DIM = 12  # largest (4,)*d int64 array built: 4^12 entries, 128 MiB

DEFAULT_CENSUS_CAP = 16
DEFAULT_FACE_CAP = _MAX_DENSE_DIM  # the face convolution holds 4^k weights

# Position of each k = 4 exponent inside an alpha vector (1, -1, i, -i).
_ALPHA_POSITION = {0: 0, 2: 1, 1: 2, 3: 3}


@dataclass(frozen=True)
class ClassCountVector:
    """Counts of length-n words over {1, i, -i} with product 1, -1, i, -i."""

    n: int
    one: int
    minus_one: int
    i: int
    minus_i: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.one, self.minus_one, self.i, self.minus_i)

    def component(self, x: GainExponent) -> int:
        if x.group.order != 4:
            raise ValidationError("alpha components are indexed by the k = 4 group")
        return self.as_tuple()[_ALPHA_POSITION[x.exp]]


@lru_cache(maxsize=None)
def alpha_vector(n: int) -> ClassCountVector:
    """Alpha vector by the one-step recurrence from (1, 0, 0, 0) at n = 0.

    Appending one edge gain from {1, i, -i} to a word multiplies its product
    by that gain, which mixes the four counts linearly; iterating the mixing
    matrix n times counts all 3^n words by their product.
    """
    if n < 0:
        raise ValidationError("word length must be nonnegative")
    a1, am1, ai, ami = 1, 0, 0, 0
    for _ in range(n):
        a1, am1, ai, ami = (
            a1 + ai + ami,
            am1 + ai + ami,
            a1 + am1 + ai,
            a1 + am1 + ami,
        )
    return ClassCountVector(n, a1, am1, ai, ami)


def alpha_closed_form(n: int) -> ClassCountVector:
    """Alpha vector in closed form, split on the parity of n."""
    if n < 0:
        raise ValidationError("word length must be nonnegative")
    if n == 0:
        return ClassCountVector(0, 1, 0, 0, 0)
    p = 3**n
    if n % 2 == 1:
        return ClassCountVector(n, (p + 1) // 4, (p - 3) // 4, (p + 1) // 4, (p + 1) // 4)
    return ClassCountVector(n, (p + 3) // 4, (p - 1) // 4, (p - 1) // 4, (p - 1) // 4)


def cycle_class_size(n: int, zeta: GainExponent) -> int:
    """Size of the switching class of a mixed n-cycle with cycle gain zeta."""
    if n < 3:
        raise ValidationError(f"cycles need at least 3 vertices, got {n}")
    return alpha_closed_form(n).component(zeta)


def _cycle_edge_ids(g: SimpleGraph, cycle: tuple[int, ...]) -> list[int]:
    closed = list(cycle) + [cycle[0]]
    return [g.edge_id(a, b) for a, b in zip(closed, closed[1:])]


def class_count_bounds(g: SimpleGraph) -> tuple[int, int, bool]:
    """Bounds on the number of classes, plus a tightness certificate.

    Returns ``(3^(m-n+c), 4^(m-n+c), upper_tight)`` where ``upper_tight`` is
    True when every fundamental cycle of the default basis has at least two
    edges private to it; in that case the upper bound is attained.
    """
    _, basis = canonical_basis(g)
    r = len(basis)
    use = [0] * g.m
    per_cycle = []
    for cyc in basis.cycles:
        ids = _cycle_edge_ids(g, cyc)
        for e in ids:
            use[e] += 1
        per_cycle.append(ids)
    tight = all(sum(1 for e in ids if use[e] == 1) >= 2 for ids in per_cycle)
    return 3**r, 4**r, tight


def mixed_basis_profile(g: GainGraph) -> tuple[int, ...]:
    """Gain exponents of g over the canonical fundamental basis of its graph."""
    return _normal_form(g, spanning_forest(g.graph))[1]


@dataclass(frozen=True)
class Census:
    """Exhaustive class census of the mixed orientations of one graph.

    ``classes`` pairs each basis gain profile (exponents mod 4, ordered by
    chord edge id) with the number of orientations carrying it; profiles are
    sorted.  ``chords`` records which edge ids the profile positions refer to.
    """

    total: int
    classes: tuple[tuple[tuple[int, ...], int], ...]
    chords: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def _by_profile(self) -> dict[tuple[int, ...], int]:
        return {profile: size for profile, size in self.classes}

    def size_of(self, profile: tuple[int, ...]) -> int:
        try:
            return self._by_profile[tuple(profile)]
        except KeyError:
            raise ValidationError(f"profile {profile} is not attained by any orientation") from None


def _basis_incidence(g: SimpleGraph, cycles, edge_ids) -> list[list[int]]:
    """``sigma[i][j]`` is +1 or -1 when cycle j runs along edge ``edge_ids[i]``
    upward (smaller to larger vertex) or downward, and 0 when it avoids it.
    Every edge of the cycles must be listed in ``edge_ids``."""
    row = {e: i for i, e in enumerate(edge_ids)}
    sigma = [[0] * len(cycles) for _ in row]
    for j, cyc in enumerate(cycles):
        closed = list(cyc) + [cyc[0]]
        for a, b in zip(closed, closed[1:]):
            sigma[row[g.edge_id(a, b)]][j] = 1 if a < b else -1
    return sigma


def brute_force_census(g: SimpleGraph, max_edges: int = DEFAULT_CENSUS_CAP) -> Census:
    """Enumerate all 3^m mixed orientations and bucket them by basis profile.

    Orientation number sum_e d_e 3^e gives edge e the gain (1, i, -i)[d_e].
    Its key packs the basis cycle exponents mod 4 into 2-bit fields, one per
    cycle; digit d_e adds (0, sigma_e, -sigma_e)[d_e] to them, field by
    field with no carry between fields.  The keys of all settings of the
    low 12 digits are built once; each setting of the high digits adds its
    own constant to that shared array, which keys one chunk of up to 3^12
    orientations, and the chunk is binned: by ``np.bincount`` over the 4^r
    profiles, or by ``np.unique`` above rank 12, where those bins would not
    fit.  Every orientation thus gets its own key while memory stays at one
    chunk.
    """
    if g.m > max_edges:
        raise InstanceTooLargeError(f"census capped at {max_edges} edges, graph has {g.m}")
    _, basis = canonical_basis(g)
    r = len(basis)
    low_bits = sum(1 << 2 * j for j in range(r))

    def pack(shift) -> int:
        return sum((x % 4) << 2 * j for j, x in enumerate(shift))

    def add(a, b):  # field-wise sum mod 4 of packed keys
        return a ^ b ^ ((a & b & low_bits) << 1)

    digits = [(0, pack(s), pack(-x for x in s)) for s in _basis_incidence(g, basis.cycles, range(g.m))]
    dense = r <= _MAX_DENSE_DIM
    low = min(g.m, _LOW_DIGITS)
    keys = np.zeros(1, dtype=np.uint32 if dense else np.uint64)
    for shifts in digits[:low]:  # digit e is the e-th least significant
        keys = np.concatenate([add(keys, c) for c in shifts])
    tally = np.zeros(4**r if dense else 0, dtype=np.int64)
    sparse: dict[int, int] = {}
    for high in itertools.product(*digits[low:]):
        chunk = add(keys, reduce(add, high, 0))
        if dense:
            tally += np.bincount(chunk, minlength=4**r)
        else:
            for u, c in zip(*(a.tolist() for a in np.unique(chunk, return_counts=True))):
                sparse[u] = sparse.get(u, 0) + c
    if dense:
        packed = np.flatnonzero(tally)
        sizes = tally[packed].tolist()
    else:
        packed = np.array(sorted(sparse), dtype=np.uint64)
        sizes = [sparse[u] for u in packed.tolist()]
    fields = [((packed >> (2 * j)) & 3).tolist() for j in range(r)]
    profiles = zip(*fields) if r else [()]  # a forest has the one empty profile
    classes = tuple(zip(profiles, sizes))
    return Census(total=3**g.m, classes=classes, chords=basis.chords)


def _convolve(d: int, steps) -> np.ndarray:
    """Weights over Z_4^d after a sequence of weighted shift steps.

    Starts from a unit weight at 0.  Each step is a list of (shift, weight)
    pairs, a shift being a length-d vector of exponents; the step replaces W
    by the sum of weight * (W shifted by shift).  The entries never go
    negative and sum to the product of the steps' weight totals, so int64
    holds them exactly while that product is below 2^63; past it they are
    Python integers, which take about five times the bytes and time, so
    their cap on d is two lower.  Three arrays of 4^d entries are live at
    once.
    """
    steps = [list(step) for step in steps]
    total = math.prod(sum(weight for _, weight in step) for step in steps)
    exact = total < 2**63
    cap = _MAX_DENSE_DIM if exact else _MAX_DENSE_DIM - 2
    if d > cap:
        raise InstanceTooLargeError(f"convolution over Z_4^d capped at d = {cap}, got d = {d}")
    w = np.zeros((4,) * d, dtype=np.int64 if exact else object)
    w[(0,) * d] = 1
    axes = tuple(range(d))
    for step in steps:
        out = np.zeros_like(w)
        for shift, weight in step:
            if weight:
                term = np.roll(w, shift, axes) if any(shift) else w.copy()  # own copy: scaled in place
                term *= weight
                out += term
                del term  # before the next roll allocates
        w = out
    return w


@dataclass(frozen=True)
class Block:
    """A biconnected block, relabeled to local vertices 1..size.

    ``vertices[i - 1]`` is the original label of local vertex i; local labels
    follow the sorted order of the originals, so canonical edge orientations
    agree between the block and its host graph.
    """

    graph: SimpleGraph
    vertices: tuple[int, ...]


def _block_edge_ids(g: SimpleGraph) -> list[list[int]]:
    """The edge ids of each biconnected block, in the order the search closes them.

    Standard low-link search with an edge stack, on an explicit DFS stack so
    deep trees need no recursion.
    """
    disc = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    timer = 1
    edge_stack: list[int] = []
    raw_blocks: list[list[int]] = []

    for s in range(1, g.n + 1):
        if disc[s]:
            continue
        disc[s] = low[s] = timer
        timer += 1
        stack = [(s, -1, iter(g.neighbors(s)))]
        while stack:
            u, parent_edge, todo = stack[-1]
            for w in todo:
                e = g.edge_id(u, w)
                if disc[w] == 0:
                    edge_stack.append(e)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, e, iter(g.neighbors(w))))
                    break
                if e != parent_edge and disc[w] < disc[u]:
                    edge_stack.append(e)
                    low[u] = min(low[u], disc[w])
            else:  # u is done: pass its low-link up, and close a block at a cut
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] >= disc[p]:
                        block = [edge_stack.pop()]
                        while block[-1] != parent_edge:
                            block.append(edge_stack.pop())
                        raw_blocks.append(block)
    return raw_blocks


def block_decompose(g: SimpleGraph) -> list[Block]:
    """Biconnected blocks (cut edges appear as single-edge blocks).

    Blocks are returned sorted by their smallest original vertex, then by
    edge lists.
    """
    blocks = []
    for edge_ids in _block_edge_ids(g):
        edges = [g.edges[e] for e in edge_ids]
        verts = tuple(sorted({v for e in edges for v in e}))
        local = {v: i + 1 for i, v in enumerate(verts)}
        local_edges = [(local[u], local[v]) for u, v in edges]
        blocks.append(Block(SimpleGraph(len(verts), local_edges), verts))
    blocks.sort(key=lambda b: (b.vertices[0], b.vertices, b.graph.edges))
    return blocks


def induced_gain_graph(g: GainGraph, block: Block) -> GainGraph:
    """The gain graph g restricted to one of its blocks, on local labels."""
    verts, index = block.vertices, g.graph.edge_index
    # a < b implies u < v: orientations agree
    exps = [g.exps[index[verts[a - 1], verts[b - 1]]] for a, b in block.graph.edges]
    return GainGraph._from_exps(block.graph, g.group, exps, g.mixed_mode)


def cut_edge_lower_bound(g: SimpleGraph) -> int:
    """3 to the number of cut edges: a lower bound on any class size.

    Gains on cut edges never affect cycle gains, so each of their 3^s mixed
    assignments stays inside the same class.
    """
    s = sum(len(ids) == 1 for ids in _block_edge_ids(g))
    return 3**s


def is_cactus(g: SimpleGraph) -> bool:
    """True when every block is a single edge or a cycle.

    That is when the default forest's fundamental cycles share no edge.
    """
    return _chord_cycles_disjoint(g, spanning_forest(g))


def class_size_by_blocks(g: GainGraph, max_edges: int = DEFAULT_CENSUS_CAP) -> int:
    """Class size as a product over blocks.

    A forest path between two vertices of a block never leaves the block,
    so the default forest meets each block in a spanning tree of it, and
    each block's chords give a fundamental basis of that block.  A block
    with no chord is a cut edge and contributes 3; a block with one chord
    is a cycle and contributes the alpha component of its cycle gain; any
    other block contributes the number of its orientations sharing its
    chord profile, counted by a convolution over Z_4^r with one step per
    block edge (blocks above ``max_edges`` edges are refused).  The input
    must be mixed.
    """
    if not g.mixed_mode:
        raise ValidationError("block class sizes apply to mixed graphs")
    graph = g.graph
    forest = spanning_forest(graph)
    _, profile = _normal_form(g, forest)
    column = {e: j for j, e in enumerate(itertools.compress(range(graph.m), forest.is_chord))}
    cycles = None  # the fundamental cycles, listed once a block needs them
    size = 1
    for ids in _block_edge_ids(graph):
        cols = [column[e] for e in ids if e in column]
        if not cols:
            size *= 3
        elif len(cols) == 1:
            # The chord's exponent is the cycle gain in one direction; alpha
            # counts a gain and its conjugate alike, so the direction is moot.
            size *= alpha_closed_form(len(ids)).component(g.group.element(profile[cols[0]]))
        else:
            if len(ids) > max_edges:
                raise InstanceTooLargeError(f"census capped at {max_edges} edges, block has {len(ids)}")
            if cycles is None:
                cycles = fundamental_cycles(graph, forest).cycles
            sigma = _basis_incidence(graph, [cycles[j] for j in cols], ids)
            zero = (0,) * len(cols)
            # one step per block edge: gain 1, i or -i shifts the profile by 0, +sigma_e or -sigma_e
            steps = [[(zero, 1), (tuple(s), 1), (tuple(-x for x in s), 1)] for s in sigma]
            size *= int(_convolve(len(cols), steps)[tuple(profile[j] for j in cols)])
    return size


@dataclass(frozen=True)
class FaceStructure:
    """Validated inner faces of a 2-connected plane graph.

    ``arcs[p - 1]`` holds one ``(edge_id, a, b)`` triple per edge of face p,
    in the face's order, for its directed traversal a -> b; shared edges are
    guaranteed to be traversed oppositely by their two faces.  ``cells``
    partitions the edge ids: cell (p, q) with p <= q holds the edges shared
    by faces p and q (only on face p when p = q).
    """

    graph: SimpleGraph
    faces: tuple[tuple[int, ...], ...]
    arcs: tuple[tuple[tuple[int, int, int], ...], ...]  # per face: (edge_id, a, b)
    cells: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    @property
    def k(self) -> int:
        return len(self.faces)

    @cached_property
    def _cell_map(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return {pq: edges for pq, edges in self.cells}

    def nonempty_cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(pq for pq, _ in self.cells)

    def n_pq(self, p: int, q: int) -> int:
        return len(self.cell_edges(p, q))

    def cell_edges(self, p: int, q: int) -> tuple[int, ...]:
        key = (p, q) if p <= q else (q, p)
        return self._cell_map.get(key, ())


def face_gains(g: GainGraph, fs: FaceStructure) -> tuple[GainExponent, ...]:
    """Gain of each face cycle, traversed in its stated (clockwise) order."""
    return tuple(cycle_gain(g, face) for face in fs.faces)


def parse_face_structure(g: GainGraph, faces) -> FaceStructure:
    """Validate user-supplied inner faces against the graph.

    Checks: the underlying graph is 2-connected; exactly m - n + 1 faces;
    every face is a simple cycle; every edge lies on one or two faces, and
    edges on two faces are traversed in opposite directions (clockwise
    consistency).  Opposite traversals make the gain law
    zeta(C_p delta C_q) = zeta(C_p) zeta(C_q) of adjacent faces hold for
    every gain assignment, so no gain is checked.
    """
    graph = g.graph
    blocks = _block_edge_ids(graph)
    covered = {v for ids in blocks for e in ids for v in graph.edges[e]}
    if graph.n < 3 or len(blocks) != 1 or len(covered) != graph.n:
        raise ValidationError("face structures require a 2-connected graph")
    faces = tuple(tuple(face) for face in faces)
    expected = graph.m - graph.n + 1
    if len(faces) != expected:
        raise ValidationError(f"expected {expected} inner faces, got {len(faces)}")

    arcs = []
    traversals: dict[int, list[tuple[int, int, int]]] = {}  # edge id -> (face, a, b) per face on it
    for p, face in enumerate(faces, start=1):
        if len(face) < 3:
            raise ValidationError(f"face {p} has fewer than 3 vertices")
        if len(set(face)) != len(face):
            raise ValidationError(f"face {p} repeats a vertex")
        closed = list(face) + [face[0]]
        face_arcs = []
        for a, b in zip(closed, closed[1:]):
            e = graph.edge_id(a, b)  # raises if not an edge
            face_arcs.append((e, a, b))
            traversals.setdefault(e, []).append((p, a, b))
        arcs.append(tuple(face_arcs))

    for e in range(graph.m):
        owners = len(traversals.get(e, ()))
        if not 1 <= owners <= 2:
            raise ValidationError(
                f"edge {graph.edges[e]} lies on {owners} faces; every edge needs 1 or 2"
            )

    cells_map: dict[tuple[int, int], list[int]] = {}
    for e, walks in traversals.items():
        (p, a, b), (q, c, d) = walks[0], walks[-1]  # faces in increasing order: p <= q
        if p != q and (a, b) != (d, c):
            raise ValidationError(
                f"faces {p} and {q} traverse edge {graph.edges[e]} in the same "
                "direction; inner faces must all be clockwise"
            )
        cells_map.setdefault((p, q), []).append(e)
    cells = tuple((pq, tuple(sorted(es))) for pq, es in sorted(cells_map.items()))
    return FaceStructure(graph=graph, faces=faces, arcs=tuple(arcs), cells=cells)


@dataclass(frozen=True)
class GammaMatrix:
    """A Hermitian k x k gain assignment to the face-pair cells.

    ``entries[p - 1][q - 1]`` is the gain x_pq (None where the cell is
    empty); x_qp is always the conjugate of x_pq and every row multiplies to
    the prescribed face gain.
    """

    entries: tuple[tuple[GainExponent | None, ...], ...]

    def entry(self, p: int, q: int) -> GainExponent | None:
        return self.entries[p - 1][q - 1]


def enumerate_gamma(fs: FaceStructure, y) -> list[GammaMatrix]:
    """All gamma matrices for the given face-gain vector y.

    Cell values obey the edge-count conditions (a single shared edge cannot
    carry -1), rows multiply to y_p, and the matrix is Hermitian by
    construction.  Deterministic order: rows filled top down, cell values
    tried in increasing exponent order.
    """
    y = tuple(y)
    group = y[0].group
    if group.order != 4:
        raise ValidationError("gamma matrices are defined over the k = 4 group")
    if len(y) != fs.k:
        raise ValidationError(f"expected {fs.k} face gains, got {len(y)}")
    k = fs.k
    row_cells: list[list[tuple[int, int]]] = [[] for _ in range(k + 1)]
    for p, q in fs.nonempty_cells():
        row_cells[p].append((p, q))
    allowed = {}
    for p, q in fs.nonempty_cells():
        allowed[(p, q)] = (0, 1, 3) if fs.n_pq(p, q) == 1 else (0, 1, 2, 3)

    assigned: dict[tuple[int, int], int] = {}
    found: list[GammaMatrix] = []

    def build() -> GammaMatrix:
        rows = []
        for p in range(1, k + 1):
            row = []
            for q in range(1, k + 1):
                if fs.n_pq(p, q) == 0:
                    row.append(None)
                else:
                    x = assigned[(p, q) if p <= q else (q, p)]
                    row.append(GainExponent(group, x if p <= q else (-x) % 4))
            rows.append(tuple(row))
        return GammaMatrix(tuple(rows))

    def rec(p: int) -> None:
        if p > k:
            found.append(build())
            return
        base = 0
        for q in range(1, p):
            if fs.n_pq(q, p) > 0:
                base -= assigned[(q, p)]  # row p sees the conjugate of x_qp
        cells = row_cells[p]
        for combo in itertools.product(*(allowed[c] for c in cells)):
            if (base + sum(combo)) % 4 != y[p - 1].exp:
                continue
            for c, x in zip(cells, combo):
                assigned[c] = x
            rec(p + 1)
            for c in cells:
                del assigned[c]

    rec(1)
    return found


def _face_weights(fs: FaceStructure, max_faces: int | None = None) -> np.ndarray:
    """The gamma-matrix sum of alpha products for every face-gain vector.

    A (4,)*k array: entry y sums, over the gamma matrices for face gains y,
    the product of alpha_{x_pq}(n_pq) over the nonempty cells.  Each cell
    (p, q) is one convolution step: value x adds x to row sum p and, off the
    diagonal, -x to row sum q, weighted by alpha_x(n_pq).  A single-edge
    cell never carries -1 because alpha_{-1}(1) = 0.  Structures above
    ``max_faces`` faces are refused; the kernel's own cap on k holds anyway.
    """
    if max_faces is not None and fs.k > max_faces:
        raise InstanceTooLargeError(f"class counting capped at {max_faces} faces, got {fs.k}")
    steps = []
    for p, q in fs.nonempty_cells():
        alpha = alpha_closed_form(fs.n_pq(p, q)).as_tuple()
        step = []
        for x in range(4):
            shift = [0] * fs.k
            shift[q - 1] = -x
            shift[p - 1] = x  # on the diagonal this overwrites the -x
            step.append((tuple(shift), alpha[_ALPHA_POSITION[x]]))
        steps.append(step)
    return _convolve(fs.k, steps)


def plane_class_size(g: GainGraph, fs: FaceStructure) -> int:
    """Class size of a mixed orientation of a 2-connected plane graph.

    Sums, over every gamma matrix for the face-gain vector of g, the product
    of alpha components alpha_{x_pq}(n_pq) across the nonempty cells.  The
    sum is read off the face-cell convolution, which holds 4^k integers.
    """
    if not g.mixed_mode:
        raise ValidationError("plane class sizes apply to mixed graphs")
    y = tuple(x.exp for x in face_gains(g, fs))
    return int(_face_weights(fs)[y])


def plane_class_count(g: SimpleGraph, fs: FaceStructure, max_faces: int = DEFAULT_FACE_CAP) -> int:
    """Number of classes of a 2-connected plane graph.

    Counts the face-gain vectors y in {1, -1, i, -i}^k that admit at least
    one gamma matrix, that is, whose face-cell convolution entry is nonzero;
    each achievable y corresponds to exactly one class.
    """
    if fs.graph != g:
        raise ValidationError("face structure belongs to a different graph")
    return int(np.count_nonzero(_face_weights(fs, max_faces)))
