"""Counting and sizing switching-equivalence classes of mixed graphs.

A mixed orientation assigns each edge a gain from {1, i, -i}; two
orientations are equivalent exactly when they agree on a fundamental cycle
basis.  Edge e with gain i adds its signed incidence sigma_e on the basis
cycles to their exponents mod 4, and gain -i subtracts it.

The brute-force census keys every one of the 3^m assignments by its basis
gain profile, one cache-sized chunk at a time: two small tables key the
settings of the low edges once, each setting of the high edges shifts the
smaller table, and the outer sum of the two keys one chunk.  The census is
the tally itself, a weight array over Z_4^r.  The closed forms count
without enumerating: cycles by their alpha vectors, other graphs by
multiplying class sizes over blocks, where a block that is not a cycle is
sized by a convolution over Z_4^r, and 2-connected plane graphs by sums
over gamma matrices attached to the inner faces, taken for every face-gain
vector at once by a convolution over Z_4^k that the face structure
keeps.  Both convolutions are character sums over Z_4^d with one factor
per run of edges in series; at d = 1 a run of j edges gives the paper's
alpha_x(j) = (3^j + 2 cos(pi x / 2) + (-1)^(j + x)) / 4.

All counts are exact Python integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import InstanceTooLargeError, ValidationError
from .gaincore import GainExponent, GainGraph, GainGroup, SimpleGraph, _check_cap, _exact_int
from .switching import (
    SpanningForest,
    _chord_cycles_disjoint,
    _chord_use,
    _chord_walk,
    _normal,
    cycle_gain,
    spanning_forest,
)

__all__ = [
    "ClassCountVector",
    "Census",
    "FaceStructure",
    "GammaMatrix",
    "alpha_vector",
    "alpha_closed_form",
    "cycle_class_size",
    "class_count_bounds",
    "mixed_basis_profile",
    "brute_force_census",
    "cut_edge_lower_bound",
    "class_size_by_blocks",
    "is_cactus",
    "parse_face_structure",
    "face_gains",
    "enumerate_gamma",
    "plane_class_size",
    "plane_class_count",
]

_LOW_DIGITS = 10  # least scan chunk width: 3^10 uint32 keys, about 231 KiB, sized for a core's cache
_MAX_DENSE_DIM = 12  # largest (4,)*d int64 array built: 4^12 entries, 128 MiB

DEFAULT_CENSUS_CAP = 16

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
        if not isinstance(x, GainExponent) or x.group.order != 4:
            raise ValidationError("alpha components are indexed by the k = 4 group")
        return self.as_tuple()[_ALPHA_POSITION[x.exp]]


def _word_length(n) -> int:
    """n as an int, refusing bools, non-integers and negative lengths.

    The alpha functions check here before their caches, which are keyed by
    int only: True == 1 and 5.0 == 5 would otherwise share entries.
    """
    n = _exact_int(n, "word length")
    if n < 0:
        raise ValidationError("word length must be nonnegative")
    return n


def alpha_vector(n: int) -> ClassCountVector:
    """Alpha vector by the one-step recurrence from (1, 0, 0, 0) at n = 0.

    Appending one edge gain from {1, i, -i} to a word multiplies its product
    by that gain, which mixes the four counts linearly; iterating the mixing
    matrix n times counts all 3^n words by their product.
    """
    return _alpha_vector(_word_length(n))


@lru_cache(maxsize=None)
def _alpha_vector(n: int) -> ClassCountVector:
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
    return _alpha_closed_form(_word_length(n))


@lru_cache(maxsize=None)
def _alpha_closed_form(n: int) -> ClassCountVector:
    if n == 0:
        return ClassCountVector(0, 1, 0, 0, 0)
    p = 3**n
    if n % 2 == 1:
        return ClassCountVector(n, (p + 1) // 4, (p - 3) // 4, (p + 1) // 4, (p + 1) // 4)
    return ClassCountVector(n, (p + 3) // 4, (p - 1) // 4, (p - 1) // 4, (p - 1) // 4)


def cycle_class_size(n: int, zeta: GainExponent) -> int:
    """Size of the switching class of a mixed n-cycle with cycle gain zeta."""
    if _word_length(n) < 3:
        raise ValidationError(f"cycles need at least 3 vertices, got {n}")
    return alpha_closed_form(n).component(zeta)


def class_count_bounds(g: SimpleGraph) -> tuple[int, int, bool]:
    """Bounds on the number of classes, plus a tightness certificate.

    Returns ``(3^(m-n+c), 4^(m-n+c), upper_tight)`` where ``upper_tight`` is
    True when every fundamental cycle of the default forest has at least two
    edges private to it; in that case the upper bound is attained.  A chord
    is private to its own cycle, so each chord's forest path (edges named by
    their child ends) needs one edge that no other chord's path uses.
    """
    f = spanning_forest(g)
    if f._arrays is not None:  # paths counted per forest edge by levels
        private = _chord_use(g, f)[1]
        r, tight = len(private), bool(private.all())
    else:
        chords = itertools.compress(zip(g.tails, g.heads), f.is_chord)
        paths = [[x for x, _ in _chord_walk(f, u, v)] for u, v in chords]
        use = [0] * (g.n + 1)
        for x in itertools.chain.from_iterable(paths):
            use[x] += 1
        tight = all(any(use[x] == 1 for x in path) for path in paths)
        r = len(paths)
    return 3**r, 4**r, tight


def mixed_basis_profile(g: GainGraph) -> tuple[int, ...]:
    """Gain exponents of g over the canonical fundamental basis of its graph."""
    return _normal(g, spanning_forest(g.graph))[1]


@dataclass(frozen=True, eq=False)
class Census:
    """Exhaustive class census of the mixed orientations of one graph.

    The census is one weight array over Z_4^r: ``weights`` is a read-only
    (4,)*r int64 array whose entry at a basis gain profile p (exponents mod
    4, ordered by chord edge id) counts the orientations carrying p, so each
    nonzero entry is one class.  ``chords`` records which edge ids the
    profile positions refer to.  ``classes`` pairs each attained profile
    with its size, profiles sorted; it is built on first use only.
    """

    total: int
    weights: np.ndarray
    chords: tuple[int, ...]

    def __eq__(self, other):
        if not isinstance(other, Census):
            return NotImplemented
        return (self.total, self.chords) == (other.total, other.chords) and np.array_equal(
            self.weights, other.weights
        )

    @property
    def num_classes(self) -> int:
        return int(np.count_nonzero(self.weights))

    @cached_property
    def classes(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        w = self.weights.ravel()
        attained = w != 0
        # Flat index order is sorted profile order, the order product lists
        # the profiles in; at rank 0 product yields the empty profile once.
        # Listing the profiles before pairing them halves the collector's
        # share at r 10 (17 full collections down to 1).
        profiles = list(itertools.compress(itertools.product(range(4), repeat=self.weights.ndim), attained))
        return tuple(zip(profiles, w[attained].tolist()))

    def size_of(self, profile: tuple[int, ...]) -> int:
        try:
            p = tuple(profile)
        except TypeError:
            raise ValidationError(f"profile {profile!r} is not a sequence of exponents") from None
        # A bool is an int, but numpy would read it as a mask, not an index.
        if len(p) == len(self.chords) and all(
            isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < 4 for x in p
        ):
            size = int(self.weights[p])
            if size:
                return size
        raise ValidationError(f"profile {profile} is not attained by any orientation")


def _basis_incidence(g: SimpleGraph, f: SpanningForest, chords, edge_ids) -> list[list[int]]:
    """``sigma[i][j]`` is +1 or -1 when the fundamental cycle of chord
    ``chords[j]`` in f, run from the chord's smaller end to its larger end,
    crosses edge ``edge_ids[i]`` upward (smaller to larger vertex) or
    downward, and 0 when it avoids it; a forest edge is crossed upward when
    the cycle climbs it from a smaller child.  Every edge of the cycles must
    be listed in ``edge_ids``."""
    row = {e: i for i, e in enumerate(edge_ids)}
    sigma = [[0] * len(chords) for _ in row]
    parent, parent_edge = f.parent, f.parent_edge
    for j, e in enumerate(chords):
        sigma[row[e]][j] = 1
        for x, climbs in _chord_walk(f, g.tails[e], g.heads[e]):
            sigma[row[parent_edge[x]]][j] = 1 if (x < parent[x]) == climbs else -1
    return sigma


def brute_force_census(g: SimpleGraph, max_edges: int = DEFAULT_CENSUS_CAP) -> Census:
    """Enumerate all 3^m mixed orientations and tally them by basis profile.

    Orientation number sum_e d_e 3^e gives edge e the gain (1, i, -i)[d_e].
    Its key packs the basis cycle exponents mod 4 into 2-bit fields, chord 0
    in the most significant one, so that key order is profile order; digit
    d_e adds (0, sigma_e, -sigma_e)[d_e] to them, field by field with no
    carry between fields.  A chunk is every setting of the low w digits for
    one setting of the high digits, w being the least width from 10 up with
    no fewer keys than the 4^r bins, 3^w >= 4^r (capped at m).  The keys of
    the settings of the low w - 2 digits and of the next 2 digits are built
    once as two tables; each setting of the high digits shifts the second
    table, and the outer sum of the two keys its chunk.  Every chunk is
    binned by ``np.bincount`` into the 4^r profiles, so every orientation
    gets its own key while memory stays at one chunk and the tally; the
    tally, reshaped to (4,)*r, is the census's weight array.  Graphs of
    rank above 12, whose tally would not fit, are refused before the scan.
    """
    _check_cap("census", g.m, max_edges, "edges")
    f = spanning_forest(g)
    chords = tuple(itertools.compress(range(g.m), f.is_chord))
    r = len(chords)
    if r > _MAX_DENSE_DIM:
        raise InstanceTooLargeError(f"census capped at rank {_MAX_DENSE_DIM}, graph has rank {r}")
    low_bits = sum(1 << 2 * j for j in range(r))

    def pack(shift) -> int:  # chord 0 in the most significant field
        return sum((x % 4) << 2 * (r - 1 - j) for j, x in enumerate(shift))

    def add(a, b):  # field-wise sum mod 4 of packed keys
        return a ^ b ^ ((a & b & low_bits) << 1)

    def table(digits) -> np.ndarray:  # the keys of every setting of these digits
        keys = np.zeros(1, np.uint32)
        for shifts in digits:
            keys = add(np.array(shifts, np.uint32)[:, None], keys).ravel()
        return keys

    digits = [(0, pack(s), pack(-x for x in s)) for s in _basis_incidence(g, f, chords, range(g.m))]
    width = _LOW_DIGITS
    while 3**width < 4**r:  # no chunk shorter than the 4^r bins it is counted into
        width += 1
    width = min(g.m, width)
    split = max(width - 2, 0)  # long rows of low keys, a few rows of mid keys
    low, mid = table(digits[:split]), table(digits[split:width])
    low_carries = (low & low_bits) << 1  # add(a, b) is a ^ b ^ (carries of a & carries of b)
    tally = np.zeros(4**r, dtype=np.int64)
    for high in itertools.product(*digits[width:]):
        shifted = add(mid, reduce(add, high, 0))
        chunk = shifted[:, None] ^ low  # add(shifted[:, None], low) in three passes
        chunk ^= ((shifted & low_bits) << 1)[:, None] & low_carries
        tally += np.bincount(chunk.ravel(), minlength=4**r)
    tally.flags.writeable = False  # and so its (4,)*r view
    return Census(total=3**g.m, weights=tally.reshape((4,) * r), chords=chords)


def _convolution_dtype(d: int, m: int):
    """The weight dtype of a convolution over Z_4^d of m edges in all; d past its cap raises.

    A pass's sums are 4 times Gaussian integers bounded by 3^m: int64 while
    4 * 3^m < 2^63 (m <= 38), Python integers past it, which take about
    five times the bytes and time, so their cap on d is two lower.
    """
    exact = 4 * 3**m < 2**63
    cap = _MAX_DENSE_DIM if exact else _MAX_DENSE_DIM - 2
    if d > cap:
        raise InstanceTooLargeError(f"convolution over Z_4^d capped at d = {cap}, got d = {d}")
    return np.int64 if exact else object


def _convolve(d: int, runs) -> np.ndarray:
    """Weights over Z_4^d of the sums of ``(column, count)`` runs of edges.

    Each of a run's ``count`` edges adds x * column, x in {0, 1, -1}, and
    W(y) counts the 3^m choices (m edges in all) summing to y.  Character
    chi takes a run to lambda(s) = (3^count, 1, (-1)^count, 1)[s], s =
    <chi, column> mod 4, so the transform P of W is the product of the
    runs' lambdas, one broadcast int8 lookup per run.  W(y) = 4^-d sum_chi
    P(chi) i^-<chi, y> then takes d radix-4 passes over one (2, 4^d) buffer
    of real and imaginary parts: a pass reads the contiguous slices of the
    leading axis of its (2, 4, 4^(d-1)) view and writes its outputs as the
    last axis of the (2, 4^(d-1), 4) view, so d passes restore the axis
    order.  A pass's sums are shifted right by 2, in ``_convolution_dtype``'s
    dtype.  Live at once: the buffer and a pass's two temporaries, as large
    as the buffer together.
    """
    runs = list(runs)
    dtype = _convolution_dtype(d, sum(count for _, count in runs))
    buf = np.zeros((2, 4**d), dtype=dtype)
    p = buf[0].reshape((4,) * d)
    p[...] = 1
    chi = np.arange(4, dtype=np.int8)
    times = chi[:, None] * chi & 3  # row c: c * chi mod 4
    axes = [(4,) + (1,) * (d - 1 - j) for j in range(d)]  # chi_j broadcast along axis j
    lam = np.array([(3**count, 1, (-1) ** count, 1) for _, count in runs], dtype=dtype)
    for (column, _), row in zip(runs, lam):
        terms = [times[c % 4].reshape(axis) for c, axis in zip(column, axes) if c % 4]
        t = reduce(np.add, terms) if terms else 0  # <chi, column> <= 3d: int8 holds it
        p *= row.take(t & 3)
    for _ in range(d):
        a = buf.reshape(2, 4, -1)
        s, t = a[:, :2] + a[:, 2:], a[:, :2] - a[:, 2:]  # (a0 + a2, a1 + a3) and (a0 - a2, a1 - a3)
        np.negative(t[0, 1], out=t[0, 1])  # t[::-1, 1] is now -i (a1 - a3)
        out = buf.reshape(2, -1, 4)
        np.add(s[:, 0], s[:, 1], out=out[:, :, 0])
        np.add(t[:, 0], t[::-1, 1], out=out[:, :, 1])
        np.subtract(s[:, 0], s[:, 1], out=out[:, :, 2])
        np.subtract(t[:, 0], t[::-1, 1], out=out[:, :, 3])
        del a, s, t, out
        buf >>= 2
    return buf[0].reshape((4,) * d).copy()  # its own data: the imaginary half is freed


def _block_edge_ids(g: SimpleGraph) -> list[list[int]]:
    """The edge ids of each biconnected block, in the order the search closes them.

    Standard low-link search with an edge stack, on an explicit DFS stack so
    deep trees need no recursion.
    """
    offsets, neighbours, edge_ids = g.csr
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
        stack = [(s, -1, iter(range(offsets[s], offsets[s + 1])))]
        while stack:
            u, parent_edge, todo = stack[-1]
            for i in todo:
                w, e = neighbours[i], edge_ids[i]
                if disc[w] == 0:
                    edge_stack.append(e)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, e, iter(range(offsets[w], offsets[w + 1]))))
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


def class_size_by_blocks(g: GainGraph) -> int:
    """Class size as a product over blocks.

    A forest path between two vertices of a block never leaves the block,
    so the default forest meets each block in a spanning tree of it, and
    each block's chords give a fundamental basis of that block.  A block
    with no chord is a cut edge and contributes 3; a block with one chord
    is a cycle and contributes the alpha component of its cycle gain; any
    other block contributes the number of its orientations sharing its
    chord profile, counted by a convolution over Z_4^r.  An edge with gain
    1, i or -i shifts the profile by 0, +sigma_e or -sigma_e, a choice that
    sigma_e -> -sigma_e leaves alone, so the edges whose incidence columns
    agree up to sign are one run; a 2-connected block of rank r has at most
    3r - 3 runs, and the convolution's cap on r, asked first, bounds the cost.
    The input must be mixed.
    """
    if not g.mixed_mode:
        raise ValidationError("block class sizes apply to mixed graphs")
    graph = g.graph
    forest = spanning_forest(graph)
    _, profile = _normal(g, forest)
    column = {e: j for j, e in enumerate(itertools.compress(range(graph.m), forest.is_chord))}
    size = 1
    for ids in _block_edge_ids(graph):
        chords = [e for e in ids if e in column]
        if not chords:
            size *= 3
        elif len(chords) == 1:
            # The chord's exponent is the cycle gain in one direction; alpha
            # counts a gain and its conjugate alike, so the direction is moot.
            size *= alpha_closed_form(len(ids)).component(g.group.element(profile[column[chords[0]]]))
        else:
            _convolution_dtype(len(chords), len(ids))  # a d past the cap raises before the incidence is built
            runs: dict[tuple[int, ...], int] = {}
            for s in _basis_incidence(graph, forest, chords, ids):
                key = tuple(s) if next(filter(None, s)) > 0 else tuple(-x for x in s)
                runs[key] = runs.get(key, 0) + 1
            size *= int(_convolve(len(chords), runs.items())[tuple(profile[column[e]] for e in chords)])
    return size


@dataclass(frozen=True)
class FaceStructure:
    """Validated inner faces of a 2-connected plane graph.

    ``arcs[p - 1]`` holds one ``(edge_id, a, b)`` triple per edge of face p,
    in the face's order, for its directed traversal a -> b; shared edges are
    guaranteed to be traversed oppositely by their two faces.  ``cells``
    partitions the edge ids: cell (p, q) with p <= q holds the edges shared
    by faces p and q (only on face p when p = q).  ``weights``, the
    face-cell convolution that both plane formulas read, is built once.
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

    @cached_property
    def weights(self) -> np.ndarray:
        """The gamma-matrix sum of alpha products for every face-gain vector.

        A read-only (4,)*k array, int64 up to m = 38 edges and Python
        integers past it: entry y sums, over the gamma matrices for face
        gains y, the product of alpha_{x_pq}(n_pq) over the nonempty cells.
        Each cell (p, q) is one run of n_pq edges: value x adds x to row sum
        p and, off the diagonal, -x to row sum q.  A single-edge cell never
        carries -1 because alpha_{-1}(1) = 0.  Built by one convolution on
        first use and kept as long as the face structure; more than 12 faces
        (10 past 38 edges) raise ``InstanceTooLargeError`` on every access.
        """
        runs = []
        for p, q in self.nonempty_cells():
            column = [0] * self.k
            column[q - 1] = -1
            column[p - 1] = 1  # on the diagonal this overwrites the -1
            runs.append((column, self.n_pq(p, q)))
        w = _convolve(self.k, runs)
        w.flags.writeable = False
        return w


def face_gains(g: GainGraph, fs: FaceStructure) -> tuple[GainExponent, ...]:
    """Gain of each face cycle, traversed in its stated (clockwise) order; fs must be of g's graph."""
    if fs.graph != g.graph:
        raise ValidationError("face structure belongs to a different graph")
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
    covered = {v for ids in blocks for e in ids for v in (graph.tails[e], graph.heads[e])}
    if graph.n < 3 or len(blocks) != 1 or len(covered) != graph.n:
        raise ValidationError("face structures require a 2-connected graph")
    try:
        faces = tuple(tuple(face) for face in faces)
    except TypeError:
        raise ValidationError(f"faces {faces!r} are not a sequence of vertex sequences") from None
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
    if len(y) != fs.k:
        raise ValidationError(f"expected {fs.k} face gains, got {len(y)}")
    if not all(isinstance(x, GainExponent) and x.group.order == 4 for x in y):
        raise ValidationError("gamma matrices are defined over the k = 4 group")
    group = GainGroup(4)
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


def plane_class_size(g: GainGraph, fs: FaceStructure) -> int:
    """Class size of a mixed orientation of a 2-connected plane graph.

    Sums, over every gamma matrix for the face-gain vector of g, the product
    of alpha components alpha_{x_pq}(n_pq) across the nonempty cells: the
    entry of ``fs.weights`` at those face gains.
    """
    if not g.mixed_mode:
        raise ValidationError("plane class sizes apply to mixed graphs")
    y = tuple(x.exp for x in face_gains(g, fs))
    return int(fs.weights[y])


def plane_class_count(g: SimpleGraph, fs: FaceStructure) -> int:
    """Number of classes of a 2-connected plane graph.

    Counts the face-gain vectors y in {1, -1, i, -i}^k that admit at least
    one gamma matrix, that is, the nonzero entries of ``fs.weights``; each
    achievable y corresponds to exactly one class.
    """
    if fs.graph != g:
        raise ValidationError("face structure belongs to a different graph")
    return int(np.count_nonzero(fs.weights))
