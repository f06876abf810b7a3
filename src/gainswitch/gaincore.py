"""Exact gain arithmetic and the gain-graph data model.

Gains are k-th roots of unity stored as exponents mod k, so all graph
combinatorics stays in integer arithmetic; complex doubles appear only when a
Hermitian adjacency matrix is materialized.  A ``GainGraph`` keeps one plain
int per edge (``exps``); ``GainExponent`` objects are built only where a
value is handed to a caller.  A mixed graph is the k = 4 case
with edge gains restricted to {1, i, -i}: an undirected edge carries gain 1,
a directed edge carries i along the arrow and -i against it.

The module also owns the ``.gg`` text format (see ``parse_gg``/``format_gg``).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InstanceTooLargeError, ValidationError

__all__ = [
    "GainGroup",
    "GainExponent",
    "SimpleGraph",
    "GainGraph",
    "SwitchingFunction",
    "MIXED_EXPONENTS",
    "build_gain_graph",
    "hermitian_matrix",
    "underlying",
    "negate",
    "parse_gg",
    "format_gg",
    "load_gg",
    "save_gg",
]

_QUARTER_VALUES = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))

# Exponents allowed on a canonically oriented (u < v) edge of a mixed graph.
MIXED_EXPONENTS = (0, 1, 3)


def _exact_int(x, what: str) -> int:
    """x as an int: numpy ints are converted; bools, floats and the rest raise."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise ValidationError(f"{what} {x!r} is not an integer")
    return operator.index(x)


def _check_cap(what: str, size: int, cap, unit: str) -> None:
    """Refuse an instance of ``size`` past an enumeration's integer ``cap``."""
    cap = _exact_int(cap, f"{what} cap")
    if size > cap:
        raise InstanceTooLargeError(f"{what} capped at {cap} {unit}, graph has {size}")


def _vertex(v, n: int) -> int:
    """v as an int, when it is one of 1..n (numpy ints included, bools not)."""
    if isinstance(v, bool) or not hasattr(type(v), "__index__") or not 1 <= operator.index(v) <= n:
        raise ValidationError(f"{v!r} is not a vertex in 1..{n}")
    return operator.index(v)


def _root_value(k: int, t: int) -> complex:
    """e^(2 pi i t / k); quarter turns are exact, so k = 4 arithmetic never drifts."""
    q, r = divmod(4 * t, k)
    if r == 0:
        return _QUARTER_VALUES[q]
    angle = 2.0 * math.pi * t / k
    return complex(math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class GainGroup:
    """Cyclic group of the k-th roots of unity; exponent t stands for e^(2*pi*i*t/k)."""

    order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", _exact_int(self.order, "gain group order"))
        if self.order < 1:
            raise ValidationError(f"gain group order must be positive, got {self.order}")

    def element(self, exp: int) -> "GainExponent":
        """The group element with the given exponent, reduced mod k."""
        return GainExponent(self, exp % self.order)

    @property
    def one(self) -> "GainExponent":
        return GainExponent(self, 0)

    def elements(self) -> tuple["GainExponent", ...]:
        return tuple(GainExponent(self, t) for t in range(self.order))


@dataclass(frozen=True)
class GainExponent:
    """A single k-th root of unity, stored exactly as an exponent in [0, k)."""

    group: GainGroup
    exp: int

    def __post_init__(self) -> None:
        if type(self.exp) is not int:
            object.__setattr__(self, "exp", _exact_int(self.exp, "exponent"))
        if not 0 <= self.exp < self.group.order:
            raise ValidationError(
                f"exponent {self.exp} out of range for group of order {self.group.order}"
            )

    def __mul__(self, other: "GainExponent") -> "GainExponent":
        if not isinstance(other, GainExponent):
            return NotImplemented
        if other.group != self.group:
            raise ValidationError("gain group mismatch")
        return GainExponent(self.group, (self.exp + other.exp) % self.group.order)

    def conj(self) -> "GainExponent":
        """Complex conjugate, i.e. the group inverse."""
        return GainExponent(self.group, (-self.exp) % self.group.order)

    @property
    def value(self) -> complex:
        """Complex value; quarter turns are exact so k = 4 arithmetic never drifts."""
        return _root_value(self.group.order, self.exp)

    def is_one(self) -> bool:
        return self.exp == 0

    def is_minus_one(self) -> bool:
        return 2 * self.exp == self.group.order

    def is_imaginary_unit(self) -> bool:
        """True for i or -i (exists only when 4 divides k)."""
        return 4 * self.exp in (self.group.order, 3 * self.group.order)

    def label(self) -> str:
        """Short human-readable name, used in reports and .gg files."""
        k, t = self.group.order, self.exp
        if t == 0:
            return "1"
        if 2 * t == k:
            return "-1"
        if 4 * t == k:
            return "i"
        if 4 * t == 3 * k:
            return "-i"
        return f"w^{t}"


def _malformed_graph(n, edges) -> str:
    """Name the vertex count, or else the first edge, that is not made of integers."""
    try:
        what = f"vertex count {n!r} is not an integer"
        operator.index(n)
        what = f"edges {edges!r} are not an iterable of vertex pairs"
        for edge in edges:
            what = f"edge {edge!r} is not a pair of integer vertices"
            u, v = edge
            operator.index(u), operator.index(v)
    except (TypeError, ValueError):
        return what
    return "edges must be pairs of integer vertices"


def _checked_edges(n, edges) -> tuple[int, list[tuple[int, int]]]:
    """The per-edge check behind ``SimpleGraph``'s bulk pass.

    Raises for the first fault, looking for them in this order: a negative
    count, an edge out of range or a self-loop (in input order), a repeated
    edge (in sorted order), and a count or vertex that is not an integer.
    Otherwise returns the count and the edges as exact ints.
    """
    try:
        if n < 0:
            raise ValidationError(f"vertex count must be nonnegative, got {n}")
        edges = list(edges)
        pairs = [(u, v) for u, v in edges]  # each entry read once: it may be an iterator
        canon = sorted([(u, v) if u < v else (v, u) for u, v in pairs])
        for u, v in pairs:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
        for prev, cur in zip(canon, canon[1:]):
            if prev == cur:
                raise ValidationError(f"duplicate edge {cur}")
        return operator.index(n), [(operator.index(u), operator.index(v)) for u, v in pairs]
    except ValidationError:
        raise
    except (TypeError, ValueError):  # a count or vertex that is not an integer
        raise ValidationError(_malformed_graph(n, edges)) from None


# From this many edges on, ``csr``, the default spanning forest and the
# normal forms and witness check on it are numpy passes.  Process time in
# microseconds (median of 9 builds, then of 5 seeded random connected graphs
# with m/n 1.2-2.5; one process on a shared 2-vCPU host) of csr plus the
# default forest, and of a first switching_equivalent on a switched pair
# (csr, forest, two normal forms, witness check):
#
#                     m    200   300   400   500   600  1000  1500  4000  10000
#   csr + forest  Python   118   186   257   437   514   648   990  3158   8493
#                  array   229   314   320   437   488   466   686  1115   2681
#   decision      Python   333   491   643   798   931  1527  2141  6189  14338
#                  array   450   609   683   726   797   917  1063  2595   4669
_ARRAY_WALK_EDGES = 500


class SimpleGraph:
    """Undirected simple graph on vertices 1..n with a canonical edge order.

    The edges are stored as two int columns: edge id e joins ``tails[e]`` <
    ``heads[e]``, and the ids follow lexicographic edge order.  The id is
    what names an edge wherever ids matter (spanning forests, cycle bases,
    censuses).  ``csr`` is the one neighbour structure, three flat int
    tuples built on first use: vertex v's sorted neighbours and their edge
    ids are its row slices.  ``edges`` (the pairs) and ``edge_index`` (pair
    -> id) are views built on first use too.  Instances are immutable by
    convention, and below ``_ARRAY_WALK_EDGES`` edges the graphs of
    ``build_gain_graph`` and ``parse_gg`` are shared (see ``_from_columns``).
    """

    __slots__ = (
        "n", "tails", "heads", "_columns", "_csr", "_csr_arrays", "_edges", "_edge_index", "_hash", "_forest"
    )

    def __init__(self, n: int, edges) -> None:
        try:
            edges = list(edges)
            pairs = {*map(len, edges)} <= {2}  # sized entries: the checked pass may read them again
        except TypeError:  # named by _checked_edges
            pairs = False
        built = pairs and _arc_columns(n, 1, ((u, v, 0) for u, v in edges))
        if not built:  # name the first bad edge, or convert integer-likes
            n, edges = _checked_edges(n, edges)
            built = _arc_columns(n, 1, ((u, v, 0) for u, v in edges))
        self._init(n, built)

    @classmethod
    def _from_columns(cls, n: int, built) -> "SimpleGraph":
        """A graph from the bulk pass's already checked columns (see ``_sorted_columns``).

        Below ``_ARRAY_WALK_EDGES`` edges the graph is ``_shared_graph``'s one
        object for its edge set, so that the orientations of one graph share
        its ``csr``, default forest and hash."""
        if len(built[0]) < _ARRAY_WALK_EDGES:
            return _shared_graph(n, built[0], built[1])
        g = object.__new__(cls)
        g._init(n, built)
        return g

    def _init(self, n: int, built) -> None:
        self.n = n
        self.tails, self.heads, _, arrays = built
        self._columns = arrays and arrays[:2]  # int64 (tails, heads), read by the array passes
        self._csr = self._csr_arrays = self._edges = self._edge_index = None
        self._hash = None
        self._forest = None  # the default spanning forest, kept by switching.spanning_forest

    @property
    def m(self) -> int:
        return len(self.tails)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as (u, v) pairs, u < v, in edge-id order."""
        if self._edges is None:
            self._edges = tuple(zip(self.tails, self.heads))
        return self._edges

    @property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Edge id of each (u, v) pair, u < v."""
        if self._edge_index is None:
            self._edge_index = dict(zip(self.edges, range(self.m)))
        return self._edge_index

    @property
    def csr(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """``(offsets, neighbours, edge_ids)``: vertex v's sorted neighbours are
        ``neighbours[offsets[v]:offsets[v + 1]]``, and ``edge_ids`` holds the
        id of each of those edges at the same place.  Row 0 is empty."""
        if self._csr is None and self._array_csr() is not None:
            self._csr = tuple(tuple(column.tolist()) for column in self._csr_arrays[:3])
        elif self._csr is None:
            n, tails, heads = self.n, self.tails, self.heads
            degree = [0] * (n + 1)
            for x in tails:
                degree[x] += 1
            for x in heads:
                degree[x] += 1
            offsets = [0, *itertools.accumulate(degree)]
            free = offsets[:-1]  # next free place of each row
            neighbours = [0] * (2 * len(tails))
            edge_ids = neighbours[:]
            # Placing the edges in id order fills each row sorted: smaller
            # neighbours first (from (w, v) edges), then larger ones (from (v, w) edges).
            for e, u, v in zip(itertools.count(), tails, heads):
                i = free[u]
                neighbours[i] = v
                edge_ids[i] = e
                free[u] = i + 1
                i = free[v]
                neighbours[i] = u
                edge_ids[i] = e
                free[v] = i + 1
            self._csr = tuple(offsets), tuple(neighbours), tuple(edge_ids)
        return self._csr

    def _column_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``tails`` and ``heads`` as int64 arrays, kept from the bulk pass or built here."""
        if self._columns is None:
            self._columns = np.array(self.tails, dtype=np.int64), np.array(self.heads, dtype=np.int64)
        return self._columns

    def _array_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """``csr`` as int64 arrays, plus the vertex whose row holds each place;
        None below ``_ARRAY_WALK_EDGES`` edges, where ``csr`` is built in Python.

        Edge end i (heads first, then tails) sorts by its row, then by i:
        each key row * 2m + i is unique, so one plain sort is a stable one.
        A row then holds its smaller neighbours (the tails of the edges it
        heads) before its larger ones, each part in edge-id order, as the
        rows of ``csr`` do.
        """
        if self._csr_arrays is None and self.m >= _ARRAY_WALK_EDGES:
            tails, heads = self._column_arrays()
            m, m2 = self.m, 2 * self.m
            rows = np.concatenate((heads, tails))
            keys = rows * m2 + np.arange(m2)
            keys.sort()
            place = keys % m2  # m = 0 divides only empty arrays
            offsets = np.zeros(self.n + 2, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=self.n + 1), out=offsets[1:])
            neighbours = np.concatenate((tails, heads))[place]
            self._csr_arrays = offsets, neighbours, place % m, keys // m2
        return self._csr_arrays

    def neighbors(self, v: int) -> tuple[int, ...]:
        """v's sorted neighbours: its row of ``csr``."""
        v = _vertex(v, self.n)
        offsets, neighbours, _ = self.csr
        return neighbours[offsets[v] : offsets[v + 1]]

    def degree(self, v: int) -> int:
        v = _vertex(v, self.n)
        offsets = self.csr[0]
        return offsets[v + 1] - offsets[v]

    def has_edge(self, u: int, v: int) -> bool:
        try:
            return ((u, v) if u < v else (v, u)) in self.edge_index
        except TypeError:  # u and v do not compare, or a key is unhashable
            raise ValidationError(f"cannot look up an edge between {u!r} and {v!r}") from None

    def edge_id(self, u: int, v: int) -> int:
        try:
            return self.edge_index[(u, v) if u < v else (v, u)]
        except (KeyError, TypeError):  # TypeError: u and v do not compare, or a key is unhashable
            raise ValidationError(f"no edge between {u} and {v}") from None

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest vertex:
        the trees of the default spanning forest, grouped by their roots."""
        from .switching import spanning_forest  # switching imports this module

        trees: dict[int, list[int]] = {}
        for v, r in enumerate(spanning_forest(self).root[1:], 1):
            trees.setdefault(r, []).append(v)  # r, the smallest vertex, comes first
        return list(trees.values())

    @property
    def num_components(self) -> int:
        return len(self.components())

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self.tails == other.tails and self.heads == other.heads

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.tails, self.heads))
        return self._hash

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.m})"


# Each entry keeps its graph alive, with its csr and default forest.  The hits
# that pay are the orientations of a few graphs built in turn.  Hits by
# maxsize over the benchmark's workloads, caches cleared after the warm-up
# round (sweep_small 400 rounds, spectra_mid and census_mid 60, cli_reports 20):
#   maxsize             1      2      4    6-8     16     32     64    256
#   sweep_small 1       0      0      0   2392   2392   2392   2392   2392  of 2400 builds
#   sweep_small 2       0      0      0   2392   2392   2392   2392   2392  of 2400
#   spectra_mid        60    120    182    242    242    488    510    580  of 1695
#   census_mid       2040   2040   2040   2044   2046   2055   2076   2136  of 3060
#   cli_reports        20     65     65     65     85    104    253    331  of 820
# decide_large's graphs all have 500 edges or more, and acceptance criterion 6
# puts each orientation on its one SimpleGraph by GainGraph(graph, ...), so
# neither looks a graph up.  Past 32 the hits are graphs met again by chance,
# dozens of builds later.
@lru_cache(maxsize=32)
def _shared_graph(n: int, tails: tuple[int, ...], heads: tuple[int, ...]) -> SimpleGraph:
    """The one ``SimpleGraph`` built from checked columns for an edge set
    below ``_ARRAY_WALK_EDGES`` edges (see ``SimpleGraph._from_columns``)."""
    g = object.__new__(SimpleGraph)
    g._init(n, (tails, heads, None, None))
    return g


def _exponent(group: GainGroup, t) -> int:
    """The exponent of one gain: a ``GainExponent`` of ``group``, or an
    integer in [0, k), numpy ints converted as ``_exact_int`` does (not a bool)."""
    if isinstance(t, GainExponent):
        if t.group != group:
            raise ValidationError("gain group mismatch")
        t = t.exp
    if type(t) is not int:
        if isinstance(t, bool) or not hasattr(type(t), "__index__"):
            raise ValidationError(f"gain {t!r} is neither a GainExponent nor an exponent")
        t = operator.index(t)
    if not 0 <= t < group.order:
        raise ValidationError(f"exponent {t} out of range for group of order {group.order}")
    return t


def _exponents(group: GainGroup, gains: tuple) -> tuple[int, ...]:
    """A tuple of gains as exponents by ``_exponent``'s rule; exact ints in [0, k) are
    kept as they are (``map(type, ...)`` is exact: bools take the per-gain rule)."""
    if gains and not ({*map(type, gains)} == {int} and min(gains) >= 0 and max(gains) < group.order):
        gains = tuple(_exponent(group, t) for t in gains)
    return gains


class GainGraph:
    """A ``SimpleGraph`` together with a unit gain on each oriented edge.

    ``gains`` holds one gain per edge id, for the canonical orientation
    u < v: an exponent in [0, k) or a ``GainExponent`` of ``group``.  They
    are stored as integer exponents in ``exps``; querying the reverse
    orientation returns the conjugate, so the Hermitian symmetry
    gain(v, u) == conj(gain(u, v)) cannot be violated by construction.
    ``GainExponent`` objects are built only where a value is handed out:
    ``gains`` and ``gain``.

    ``mixed_mode`` marks the graph as a mixed graph: the group must have
    order 4 and every stored gain must lie in {1, i, -i}.

    ``_normal`` keeps ``(forest, normal form)`` for the last spanning forest
    the graph's normal form was asked on (see ``switching._normal``), so the
    readers of one graph compute it once.
    """

    __slots__ = ("graph", "group", "exps", "mixed_mode", "_exps_array", "_hash", "_normal")

    def __init__(self, graph: SimpleGraph, group: GainGroup, gains, mixed_mode: bool = False) -> None:
        exps = tuple(gains)
        if len(exps) != graph.m:
            raise ValidationError(f"expected {graph.m} gains, got {len(exps)}")
        self._store(graph, group, _exponents(group, exps), mixed_mode)

    def _store(self, graph: SimpleGraph, group: GainGroup, exps: tuple, mixed_mode: bool) -> None:
        if mixed_mode:
            if group.order != 4:
                raise ValidationError("mixed graphs require the k = 4 gain group")
            if 2 in exps:
                raise ValidationError("mixed graphs allow only gains 1, i, -i; got -1 on an edge")
        self.graph = graph
        self.group = group
        self.exps = exps
        self.mixed_mode = mixed_mode
        self._exps_array = None
        self._hash = None
        self._normal = None

    def _exps_column(self) -> np.ndarray:
        """``exps`` as an int64 array (for k below 2^63), kept from the bulk pass or built here."""
        if self._exps_array is None:
            self._exps_array = np.array(self.exps, dtype=np.int64)
        return self._exps_array

    @property
    def gains(self) -> tuple[GainExponent, ...]:
        """The gains as ``GainExponent``s, in edge-id order (built on each
        access, one object per distinct exponent)."""
        made = {t: GainExponent(self.group, t) for t in set(self.exps)}
        return tuple(map(made.__getitem__, self.exps))

    def exponent(self, u: int, v: int) -> int:
        """Exponent of the gain of the oriented edge u -> v."""
        t = self.exps[self.graph.edge_id(u, v)]
        return t if u < v else (-t) % self.group.order

    def gain(self, u: int, v: int) -> GainExponent:
        """Gain of the oriented edge u -> v (conjugated when u > v)."""
        return GainExponent(self.group, self.exponent(u, v))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GainGraph):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.group == other.group
            and self.exps == other.exps
            and self.mixed_mode == other.mixed_mode
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.graph, self.group, self.exps, self.mixed_mode))
        return self._hash

    def __repr__(self) -> str:
        tag = ", mixed" if self.mixed_mode else ""
        return f"GainGraph(n={self.graph.n}, m={self.graph.m}, k={self.group.order}{tag})"


@dataclass(frozen=True)
class SwitchingFunction:
    """Vertex -> gain map theta, the diagonal of the switching matrix D(theta):
    ``exps[v - 1]`` is theta(v)'s exponent, taken and stored as a ``GainGraph`` gain is."""

    group: GainGroup
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exps", _exponents(self.group, tuple(self.exps)))

    @classmethod
    def _unchecked(cls, group: GainGroup, exps: tuple[int, ...]) -> "SwitchingFunction":
        """Wrap exponents known to be ints in [0, k), skipping the check."""
        theta = object.__new__(cls)
        object.__setattr__(theta, "group", group)
        object.__setattr__(theta, "exps", exps)
        return theta

    def __call__(self, v: int) -> GainExponent:
        return GainExponent(self.group, self.exps[_vertex(v, len(self.exps)) - 1])

    @property
    def n(self) -> int:
        return len(self.exps)

    @staticmethod
    def identity(group: GainGroup, n: int) -> "SwitchingFunction":
        return SwitchingFunction._unchecked(group, (0,) * n)

    def conj(self) -> "SwitchingFunction":
        k = self.group.order
        return SwitchingFunction._unchecked(self.group, tuple(-t % k for t in self.exps))

    def mul(self, other: "SwitchingFunction") -> "SwitchingFunction":
        if other.group != self.group:
            raise ValidationError("gain group mismatch")
        if other.n != self.n:
            raise ValidationError("switching functions defined on different vertex sets")
        k = self.group.order
        return SwitchingFunction._unchecked(self.group, tuple((a + b) % k for a, b in zip(self.exps, other.exps)))

    def is_identity(self) -> bool:
        return not any(self.exps)


def _checked_arcs(n, group: GainGroup, arcs):
    """The per-entry check behind ``build_gain_graph``'s bulk pass.

    Raises for the first bad entry (not a triple, a self-loop, a gain that
    is not an exponent in [0, k) or a ``GainExponent`` of ``group``, or a
    pair given twice), then lets ``_checked_edges`` name a bad count or
    vertex.  Otherwise returns the count and the arcs as exact-int
    (u, v, t) rows, each in canonical orientation.
    """
    k = group.order
    pair_exp: dict[tuple[int, int], int] = {}
    for entry in arcs:
        try:
            u, v, t = entry
            forward = u < v
        except (TypeError, ValueError):
            raise ValidationError(f"edge entry {entry!r} is not a (u, v, gain) triple of integer vertices") from None
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        t = _exponent(group, t)
        key = (u, v) if forward else (v, u)
        if key in pair_exp:
            raise ValidationError(f"both orientations (or a repeat) given for pair {key}")
        pair_exp[key] = t if forward else -t % k
    n, pairs = _checked_edges(n, pair_exp)
    return n, [(u, v, t) for (u, v), t in zip(pairs, pair_exp.values())]


def _arc_columns(n, k: int, arcs):
    """The bulk pass of ``build_gain_graph``, ``parse_gg`` and ``SimpleGraph``:
    arcs (u, v, t), u -> v with exponent t, sorted into the graph's (tails,
    heads, exps).  ``SimpleGraph`` passes k = 1 and every exponent 0.

    Each arc becomes one int key (a * (n + 1) + b) * k + x, where a < b is
    its pair and x its exponent on a -> b, so sorting the keys sorts the
    edges and carries their exponents along.  Returns None when the count,
    a vertex or an exponent is not an exact int, a vertex lies outside
    1..n, an exponent outside [0, k), or a pair is a self-loop or repeats.
    """
    if type(n) is not int or n < 0:
        return None
    w = n + 1
    try:
        # A bad exponent, a self-loop or a vertex out of range keys as None;
        # a float vertex as a float.
        keys = [
            None if type(t) is not int or not 0 <= t < k
            else (u * w + v) * k + t if 0 < u < v <= n
            else (v * w + u) * k + (-t) % k if 0 < v < u <= n
            else None
            for u, v, t in arcs
        ]
    except (TypeError, ValueError):
        return None
    if keys and {*map(type, keys)} != {int}:
        return None
    # Every key is below (n + 1)^2 * k, so when that is below 2^63 the keys
    # and k fit int64; otherwise the keys stay Python ints in an object
    # array, which numpy sorts and divides exactly.
    return _sorted_columns(np.array(keys, dtype=np.int64 if w * w * k < 1 << 63 else object), w, k)


def _sorted_columns(keys: np.ndarray, w: int, k: int):
    """(tails, heads, exps, arrays) from an array of arc keys (a * w + b) * k + x,
    or None when a pair repeats.  ``arrays`` holds the three columns as int64
    arrays for the array passes (exps None at k = 1), or is None when the
    keys are Python ints."""
    keys.sort()
    # At k = 1 (SimpleGraph's arcs) the keys are the pairs and every exponent
    # is 0; skipping the two divisions saves their fixed numpy cost on tiny graphs.
    if k == 1:
        pairs, exps = keys, None
    else:
        pairs, exps = keys // k, keys % k
    if np.count_nonzero(pairs[1:] == pairs[:-1]):  # a repeated pair
        return None
    tails, heads = pairs // w, pairs % w
    arrays = (tails, heads, exps) if keys.dtype == np.int64 else None
    exps = (0,) * len(keys) if exps is None else tuple(exps.tolist())
    return tuple(tails.tolist()), tuple(heads.tolist()), exps, arrays


def _array_arc_columns(n: int, k: int, runs, arcs):
    """``_arc_columns`` as array arithmetic, for ``parse_gg``: ``runs`` are
    the (3, L) int64 columns of the ``e`` lines it read in bulk, ``arcs``
    the (u, v, t) int rows of the others.

    One int64 array holds the columns; the orientation, range, self-loop
    and key steps run on whole columns.  Returns None where ``_arc_columns``
    would, and also when a field or a key does not fit int64.
    """
    w = n + 1
    if n < 0 or w * w * k >= 1 << 63:
        return None
    try:
        us, vs, ts = np.concatenate((*runs, np.array(arcs, dtype=np.int64).reshape(-1, 3).T), axis=1)
    except OverflowError:  # a field of arcs past int64
        return None
    forward = us < vs
    lo, hi = np.where(forward, us, vs), np.where(forward, vs, us)
    if len(lo) and (lo.min() < 1 or hi.max() > n or ts.min() < 0 or ts.max() >= k or not (lo != hi).all()):
        return None
    return _sorted_columns((lo * w + hi) * k + np.where(forward, ts, -ts % k), w, k)


def _gain_graph(n, group: GainGroup, built, arcs, mixed_mode: bool) -> GainGraph:
    """Build from the bulk pass's (tails, heads, exps), or, when it refused
    (``built`` is falsy), from what ``_checked_arcs`` makes of ``arcs``."""
    if not built:  # name the first bad entry, or convert integer-likes and GainExponents
        n, rows = _checked_arcs(n, group, arcs)
        built = _arc_columns(n, group.order, rows)
    g = object.__new__(GainGraph)
    g._store(SimpleGraph._from_columns(n, built), group, built[2], mixed_mode)
    g._exps_array = built[3] and built[3][2]
    return g


def build_gain_graph(n: int, group: GainGroup, directed_gains, mixed_mode: bool = False) -> GainGraph:
    """Build a gain graph from oriented edge data.

    ``directed_gains`` is an iterable of (u, v, gain) triples where the gain
    applies to the orientation u -> v and is either a ``GainExponent`` of
    ``group`` or a plain exponent in [0, k).  At most one of (u, v)/(v, u)
    may appear per vertex pair.
    """
    arcs = list(directed_gains)
    try:
        triples = {*map(len, arcs)} <= {3}  # sized entries: the checked pass may read them again
    except TypeError:  # an entry without a length
        triples = False
    return _gain_graph(n, group, triples and _arc_columns(n, group.order, arcs), arcs, mixed_mode)


def hermitian_matrix(g: GainGraph) -> np.ndarray:
    """Hermitian adjacency matrix as an n x n complex array.

    Entry (u, v) is the gain of u -> v on edges and 0 elsewhere; the lower
    triangle is set to the exact conjugate of the upper, so H equals its
    conjugate transpose bit for bit.
    """
    n = g.graph.n
    h = np.zeros((n, n), dtype=complex)
    k = g.group.order
    values = {t: _root_value(k, t) for t in set(g.exps)}
    for u, v, t in zip(g.graph.tails, g.graph.heads, g.exps):
        val = values[t]
        h[u - 1, v - 1] = val
        h[v - 1, u - 1] = val.conjugate()
    return h


def underlying(g: GainGraph) -> GainGraph:
    """The same graph with every gain set to 1."""
    return GainGraph(g.graph, g.group, (0,) * g.graph.m, g.mixed_mode)


def negate(g: GainGraph) -> GainGraph:
    """Multiply every gain by -1.  Requires an even group order.

    The result is never flagged mixed: negation sends gain 1 to -1, which is
    outside the mixed gain set.
    """
    k = g.group.order
    if k % 2 != 0:
        raise ValidationError("negation needs -1 in the gain group (even order)")
    half = k // 2
    return GainGraph(g.graph, g.group, [(t + half) % k for t in g.exps])


_MIXED_TOKEN = {"1": 0, "i": 1, "-1": 2, "-i": 3}

# parse_gg reads a run of canonical e lines in bulk from this many lines on.
# Below it the bulk read's fixed cost (some twenty numpy calls) outweighs its
# per-line saving: on format_gg texts at k 2, 4 and 6 the whole parse took
# 0.97-1.19x the line loop's time at 16-20 lines, 0.77-0.91x at 24 and
# 0.58-0.67x at 45.
_ARRAY_PARSE_EDGES = 24


def _integer(token: str) -> int:
    """An ASCII decimal integer, ``-?[0-9]+``; bare ``int`` would also take
    ``1_0``, ``+3`` and non-ASCII digits."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValidationError(f"expected an integer, got {token!r}")
    return int(token)


def _read_lines(lines: list[str], first: int = 1, state=None):
    """The line loop of ``parse_gg`` over ``lines``, numbered from ``first``.

    Returns the state ``(k, aliases, mixed, n, arcs, faces)``: the header,
    the ``e`` lines as (u, v, t) int rows and the faces, read on from
    ``state`` when it is given.  A bad line raises, naming its number.
    """
    k, aliases, mixed, n, arcs, faces = state or (None, {}, False, None, [], [])
    for lineno, raw in enumerate(lines, start=first):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        tag = parts[0]
        try:
            if tag == "e":  # the commonest line
                if k is None or n is None:
                    raise ValidationError("e line before gg/n header")
                _, su, sv, tok = parts
                t = aliases.get(tok)
                fields = su + sv if t is not None else su + sv + tok
                if fields.isascii() and fields.isdigit():  # every field plain digits: one check
                    arcs.append((int(su), int(sv), int(tok) if t is None else t))
                else:  # a sign or a bad field, named as the per-field check names it
                    arcs.append((_integer(su), _integer(sv), _integer(tok) if t is None else t))
            elif tag == "gg":
                if k is not None:
                    raise ValidationError("repeated gg header")
                k = _integer(parts[1])
                if k == 4:
                    aliases = _MIXED_TOKEN
                if len(parts) == 3:
                    if parts[2] != "mixed":
                        raise ValidationError(f"unknown header flag {parts[2]!r}")
                    mixed = True
                elif len(parts) > 3:
                    raise ValidationError("too many header fields")
            elif tag == "n":
                if n is not None:
                    raise ValidationError("repeated n line")
                _, count = parts
                n = _integer(count)
            elif tag == "f":
                if n is None:
                    raise ValidationError("f line before n header")
                face = tuple(_integer(p) for p in parts[1:])
                if not face:
                    raise ValidationError("f line lists no vertices")
                for v in face:
                    if not 1 <= v <= n:
                        raise ValidationError(f"face vertex {v} out of range")
                faces.append(face)
            else:
                raise ValidationError(f"unknown directive {tag!r}")
        except (ValidationError, IndexError, ValueError) as exc:
            what = exc if isinstance(exc, ValidationError) else f"malformed {tag!r} line ({exc})"
            raise ValidationError(f"line {lineno}: {what}") from None
    return k, aliases, mixed, n, arcs, faces


# A run of e lines as format_gg writes them, "e <u> <v> <gain>\n" from a line
# start, with single spaces and vertices of 1 to 18 ASCII digits, so that each
# field fits int64 exactly.  The gain is such digits too or, at k = 4, one of
# the tokens 0 1 2 3 i -1 -i (a longer digit string there, such as 01, is an
# exponent that a one-character alias would read otherwise).
_E_RUN = re.compile(r"(?m)^(?:e [0-9]{1,18} [0-9]{1,18} [0-9]{1,18}\n)+")
_E_RUN_QUARTER = re.compile(r"(?m)^(?:e [0-9]{1,18} [0-9]{1,18} (?:[0-3i]|-[1i])\n)+")
# A run with its e dropped, i read as 5 and - as 6 is decimal fields only, and
# a k = 4 gain token reads as one of 0 1 2 3 5 61 65; _RUN_EXPONENT maps each
# of those to its exponent ("1" 0, "i" 1, "-1" 2, "-i" 3).
_RUN_DIGITS = str.maketrans({"e": None, "i": "5", "-": "6"})
_RUN_EXPONENT = np.zeros(66, dtype=np.int64)
_RUN_EXPONENT[[2, 3, 5, 61, 65]] = 2, 3, 1, 2, 3


def parse_gg(text: str) -> tuple[GainGraph, tuple[tuple[int, ...], ...]]:
    """Parse the ``.gg`` text format.

    Returns ``(graph, faces)`` where ``faces`` collects the optional ``f``
    lines (clockwise inner-face cycles, consumed by the census module).

    Format, one directive per line, ``#`` starts a comment::

        gg <k> [mixed]     header; k is the gain group order
        n <count>          vertex count
        e <u> <v> <t>      edge with gain exponent t on orientation u -> v;
                           for k = 4 the tokens 1, -1, i, -i are accepted
                           as aliases for t = 0, 2, 1, 3
        f <v1> ... <vl>    optional inner face, clockwise vertex cycle

    One walk reads the text.  The line loop (``_read_lines``) reads the
    lines up to the first ``e`` line, which must hold the header.  Then
    every run of at least ``_ARRAY_PARSE_EDGES`` canonical ``e`` lines, as
    ``format_gg`` writes them, is converted by one ``np.fromstring``, and
    the lines between the runs and after the last go through the line loop
    with their true numbers; it converts each ``e`` line's fields as it
    reaches them.  The edges are keyed once, as arrays when a run was read
    in bulk.  Where keying refuses, the exact ints of every ``e`` line, in
    file order, go to the per-entry check, which names the first bad one.
    """
    start = text.find("\ne ") + 1  # the first line that starts with "e ", or 0
    lines = text[:start].splitlines()
    state = _read_lines(lines)
    first = len(lines) + 1
    runs = []  # (how many e lines the loop read before it, its (3, L) int64 columns)
    k, n = state[0], state[3]
    if k is not None and n is not None:
        for run in (_E_RUN_QUARTER if k == 4 else _E_RUN).finditer(text, start):
            block = run.group()
            count = block.count("\n")
            if count < _ARRAY_PARSE_EDGES:
                continue
            lines = text[start : run.start()].splitlines()
            state = _read_lines(lines, first, state)
            columns = np.fromstring(block.translate(_RUN_DIGITS), dtype=np.int64, sep=" ").reshape(count, 3).T
            if k == 4:
                columns[2] = _RUN_EXPONENT[columns[2]]
            runs.append((len(state[4]), columns))
            first += len(lines) + count
            start = run.end()
    k, _, mixed, n, arcs, faces = _read_lines(text[start:].splitlines(), first, state)
    if k is None:
        raise ValidationError("missing gg header")
    if n is None:
        raise ValidationError("missing n line")
    group = GainGroup(k)
    if runs:
        built = _array_arc_columns(n, k, [columns for _, columns in runs], arcs)
        if not built:  # every e line's exact ints, in file order
            for at, columns in reversed(runs):
                arcs[at:at] = zip(*columns.tolist())
    else:
        built = _arc_columns(n, k, arcs)
    return _gain_graph(n, group, built, arcs, mixed), tuple(faces)


def format_gg(g: GainGraph, faces=()) -> str:
    """Serialize a gain graph (and optional faces) to the ``.gg`` format.

    ``parse_gg(format_gg(g)) == g`` for every valid gain graph.
    """
    head = f"gg {g.group.order} mixed" if g.mixed_mode else f"gg {g.group.order}"
    # For k = 4 the parser reads a bare "1" as the alias for gain 1, so the
    # exponent 1 must be written as its token "i" to round-trip.
    tokens = {exp: tok for tok, exp in _MIXED_TOKEN.items()} if g.group.order == 4 else None
    gains = map(tokens.__getitem__, g.exps) if tokens else g.exps
    rows = itertools.chain.from_iterable(zip(g.graph.tails, g.graph.heads, gains))
    edges = ("e %d %d %s\n" * g.graph.m) % tuple(rows)
    return f"{head}\nn {g.graph.n}\n{edges}" + "".join("f " + " ".join(map(str, face)) + "\n" for face in faces)


def load_gg(path) -> tuple[GainGraph, tuple[tuple[int, ...], ...]]:
    """Read and parse a ``.gg`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gg(fh.read())


def save_gg(g: GainGraph, path, faces=()) -> None:
    """Serialize a gain graph to a ``.gg`` file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_gg(g, faces))
