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

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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


@dataclass(frozen=True)
class GainGroup:
    """Cyclic group of the k-th roots of unity; exponent t stands for e^(2*pi*i*t/k)."""

    order: int

    def __post_init__(self) -> None:
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
        k, t = self.group.order, self.exp
        q, r = divmod(4 * t, k)
        if r == 0:
            return _QUARTER_VALUES[q]
        angle = 2.0 * math.pi * t / k
        return complex(math.cos(angle), math.sin(angle))

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


class SimpleGraph:
    """Undirected simple graph on vertices 1..n with a canonical edge order.

    Edges are stored sorted lexicographically; the position of an edge in
    ``edges`` is its edge id, used wherever ids matter (spanning forests,
    cycle bases, censuses).  Instances are immutable by convention.
    """

    __slots__ = ("n", "edges", "edge_index", "adjacency", "_hash", "_forest")

    def __init__(self, n: int, edges) -> None:
        try:
            if n < 0:
                raise ValidationError(f"vertex count must be nonnegative, got {n}")
            edges = list(edges)
            canon = sorted([(u, v) if u < v else (v, u) for u, v in edges])
            if canon:
                low, high = zip(*canon)
                if low[0] < 1 or max(high) > n or any(map(operator.eq, low, high)):
                    for u, v in edges:  # name the first bad edge
                        if not (1 <= u <= n and 1 <= v <= n):
                            raise ValidationError(f"edge ({u},{v}) out of range 1..{n}")
                        if u == v:
                            raise ValidationError(f"self-loop at vertex {u}")
            self.n = n
            self.edges = tuple(canon)
            self.edge_index = dict(zip(self.edges, range(len(canon))))
            if len(self.edge_index) < len(canon):
                dup = next(cur for prev, cur in zip(canon, canon[1:]) if prev == cur)
                raise ValidationError(f"duplicate edge {dup}")
            adj = [[] for _ in range(n + 1)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
        except ValidationError:
            raise
        except (TypeError, ValueError):  # a count or vertex that is not an integer
            raise ValidationError(_malformed_graph(n, edges)) from None
        # The edges are sorted, so each list already is: smaller neighbours
        # first (from (w, v) edges), then larger ones (from (v, w) edges).
        self.adjacency = tuple(map(tuple, adj))
        self._hash = None
        self._forest = None  # the default spanning forest, kept by switching.spanning_forest

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_index

    def edge_id(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self.edge_index[key]
        except KeyError:
            raise ValidationError(f"no edge between {u} and {v}") from None

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest vertex."""
        seen = [False] * (self.n + 1)
        out = []
        for s in range(1, self.n + 1):
            if seen[s]:
                continue
            comp, queue = [], [s]
            seen[s] = True
            while queue:
                v = queue.pop()
                comp.append(v)
                for w in self.adjacency[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            out.append(sorted(comp))
        return out

    @property
    def num_components(self) -> int:
        return len(self.components())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.m})"


def _elements(group: GainGroup, exps) -> tuple[GainExponent, ...]:
    """``GainExponent``s for exponents in [0, k), one object per distinct exponent."""
    made = {t: GainExponent(group, t) for t in set(exps)}
    return tuple(map(made.__getitem__, exps))


class GainGraph:
    """A ``SimpleGraph`` together with a unit gain on each oriented edge.

    Gains are stored as integer exponents in ``exps``, one per edge id, for
    the canonical orientation u < v; querying the reverse orientation returns
    the conjugate, so the Hermitian symmetry gain(v, u) == conj(gain(u, v))
    cannot be violated by construction.  ``GainExponent`` objects are built
    only where a value is handed out: ``gains``, ``gain`` and ``gain_by_id``.

    ``mixed_mode`` marks the graph as a mixed graph: the group must have
    order 4 and every stored gain must lie in {1, i, -i}.
    """

    __slots__ = ("graph", "group", "exps", "mixed_mode", "_hash")

    def __init__(self, graph: SimpleGraph, group: GainGroup, gains, mixed_mode: bool = False) -> None:
        gains = tuple(gains)
        if len(gains) != graph.m:
            raise ValidationError(f"expected {graph.m} gains, got {len(gains)}")
        for g in gains:
            if not isinstance(g, GainExponent):
                raise ValidationError(f"gain {g!r} is not a GainExponent")
            if g.group != group:
                raise ValidationError("gain group mismatch")
        self._store(graph, group, tuple(g.exp for g in gains), mixed_mode)

    @classmethod
    def _from_exps(cls, graph: SimpleGraph, group: GainGroup, exps, mixed_mode: bool = False) -> "GainGraph":
        """The integer constructor: ``exps`` holds one exponent in [0, k) per edge id."""
        exps = tuple(exps)
        if len(exps) != graph.m:
            raise ValidationError(f"expected {graph.m} gains, got {len(exps)}")
        k = group.order
        # map(type, ...) is exact, so bools (and any other int subclass) fail.
        if exps and not ({*map(type, exps)} == {int} and min(exps) >= 0 and max(exps) < k):
            for t in exps:
                if type(t) is not int:
                    raise ValidationError(f"exponent {t!r} is not an int")
                if not 0 <= t < k:
                    raise ValidationError(f"exponent {t} out of range for group of order {k}")
        g = object.__new__(cls)
        g._store(graph, group, exps, mixed_mode)
        return g

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
        self._hash = None

    @property
    def gains(self) -> tuple[GainExponent, ...]:
        """The gains as ``GainExponent``s, in edge-id order (built on each access)."""
        return _elements(self.group, self.exps)

    def exponent(self, u: int, v: int) -> int:
        """Exponent of the gain of the oriented edge u -> v."""
        t = self.exps[self.graph.edge_id(u, v)]
        return t if u < v else (-t) % self.group.order

    def gain(self, u: int, v: int) -> GainExponent:
        """Gain of the oriented edge u -> v (conjugated when u > v)."""
        return GainExponent(self.group, self.exponent(u, v))

    def gain_by_id(self, edge_id: int) -> GainExponent:
        """Gain of the edge with the given id, in canonical (u < v) orientation."""
        return GainExponent(self.group, self.exps[edge_id])

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
    """Vertex -> gain map theta; the diagonal of the switching matrix D(theta)."""

    values: tuple[GainExponent, ...]

    def __call__(self, v: int) -> GainExponent:
        return self.values[v - 1]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def group(self) -> GainGroup:
        return self.values[0].group

    @staticmethod
    def identity(group: GainGroup, n: int) -> "SwitchingFunction":
        return SwitchingFunction((group.one,) * n)

    def conj(self) -> "SwitchingFunction":
        return SwitchingFunction(tuple(v.conj() for v in self.values))

    def mul(self, other: "SwitchingFunction") -> "SwitchingFunction":
        if other.n != self.n:
            raise ValidationError("switching functions defined on different vertex sets")
        return SwitchingFunction(tuple(a * b for a, b in zip(self.values, other.values)))

    def is_identity(self) -> bool:
        return all(v.is_one() for v in self.values)


def build_gain_graph(n: int, group: GainGroup, directed_gains, mixed_mode: bool = False) -> GainGraph:
    """Build a gain graph from oriented edge data.

    ``directed_gains`` is an iterable of (u, v, gain) triples where the gain
    applies to the orientation u -> v and is either a ``GainExponent`` of
    ``group`` or a plain exponent in [0, k).  At most one of (u, v)/(v, u)
    may appear per vertex pair.
    """
    k = group.order
    pair_exp: dict[tuple[int, int], int] = {}
    for entry in directed_gains:
        try:
            u, v, t = entry
            forward = u < v
        except (TypeError, ValueError):
            raise ValidationError(f"edge entry {entry!r} is not a (u, v, gain) triple of integer vertices") from None
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if type(t) is not int:
            if isinstance(t, GainExponent):
                if t.group != group:
                    raise ValidationError("gain group mismatch")
                t = t.exp
            elif isinstance(t, int) and not isinstance(t, bool):
                t = int(t)
            else:
                raise ValidationError(f"gain {t!r} is neither a GainExponent nor an exponent")
        if not 0 <= t < k:
            raise ValidationError(f"exponent {t} out of range for group of order {k}")
        key = (u, v) if forward else (v, u)
        if key in pair_exp:
            raise ValidationError(f"both orientations (or a repeat) given for pair {key}")
        pair_exp[key] = t if forward else -t % k
    graph = SimpleGraph(n, pair_exp)
    return GainGraph._from_exps(graph, group, map(pair_exp.__getitem__, graph.edges), mixed_mode)


def hermitian_matrix(g: GainGraph) -> np.ndarray:
    """Hermitian adjacency matrix as an n x n complex array.

    Entry (u, v) is the gain of u -> v on edges and 0 elsewhere; the lower
    triangle is set to the exact conjugate of the upper, so H equals its
    conjugate transpose bit for bit.
    """
    n = g.graph.n
    h = np.zeros((n, n), dtype=complex)
    values = {t: GainExponent(g.group, t).value for t in set(g.exps)}
    for (u, v), t in zip(g.graph.edges, g.exps):
        val = values[t]
        h[u - 1, v - 1] = val
        h[v - 1, u - 1] = val.conjugate()
    return h


def underlying(g: GainGraph) -> GainGraph:
    """The same graph with every gain set to 1."""
    return GainGraph._from_exps(g.graph, g.group, (0,) * g.graph.m, g.mixed_mode)


def negate(g: GainGraph) -> GainGraph:
    """Multiply every gain by -1.  Requires an even group order.

    The result is never flagged mixed: negation sends gain 1 to -1, which is
    outside the mixed gain set.
    """
    k = g.group.order
    if k % 2 != 0:
        raise ValidationError("negation needs -1 in the gain group (even order)")
    half = k // 2
    return GainGraph._from_exps(g.graph, g.group, [(t + half) % k for t in g.exps])


_MIXED_TOKEN = {"1": 0, "i": 1, "-1": 2, "-i": 3}


def _integer(token: str) -> int:
    """An ASCII decimal integer, ``-?[0-9]+``; bare ``int`` would also take
    ``1_0``, ``+3`` and non-ASCII digits."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValidationError(f"expected an integer, got {token!r}")
    return int(token)


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
    """
    k: int | None = None
    aliases: dict[str, int] = {}
    mixed = False
    n: int | None = None
    entries: list[tuple[int, int, int]] = []
    faces: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "e":  # the commonest line; plain digits skip _integer
                if k is None or n is None:
                    raise ValidationError("e line before gg/n header")
                _, su, sv, tok = parts
                if line.isascii() and su.isdigit() and sv.isdigit():
                    u, v = int(su), int(sv)
                else:
                    u, v = _integer(su), _integer(sv)
                entries.append((u, v, aliases[tok] if tok in aliases else _integer(tok)))
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
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"line {lineno}: malformed {tag!r} line ({exc})") from None
    if k is None:
        raise ValidationError("missing gg header")
    if n is None:
        raise ValidationError("missing n line")
    graph = build_gain_graph(n, GainGroup(k), entries, mixed_mode=mixed)
    return graph, tuple(faces)


def format_gg(g: GainGraph, faces=()) -> str:
    """Serialize a gain graph (and optional faces) to the ``.gg`` format.

    ``parse_gg(format_gg(g)) == g`` for every valid gain graph.
    """
    head = f"gg {g.group.order} mixed" if g.mixed_mode else f"gg {g.group.order}"
    lines = [head, f"n {g.graph.n}"]
    # For k = 4 the parser reads a bare "1" as the alias for gain 1, so the
    # exponent 1 must be written as its token "i" to round-trip.
    tokens = {exp: tok for tok, exp in _MIXED_TOKEN.items()} if g.group.order == 4 else None
    for (u, v), t in zip(g.graph.edges, g.exps):
        lines.append(f"e {u} {v} {tokens[t] if tokens else t}")
    for face in faces:
        lines.append("f " + " ".join(str(v) for v in face))
    return "\n".join(lines) + "\n"


def load_gg(path) -> tuple[GainGraph, tuple[tuple[int, ...], ...]]:
    """Read and parse a ``.gg`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gg(fh.read())


def save_gg(g: GainGraph, path, faces=()) -> None:
    """Serialize a gain graph to a ``.gg`` file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_gg(g, faces))
