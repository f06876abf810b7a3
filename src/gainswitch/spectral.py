"""Hermitian spectra and characteristic polynomials of gain graphs.

Two independent routes are kept deliberately separate: the characteristic
polynomial is assembled combinatorially from elementary subgraphs (edges and
cycles with real cycle gains), enumerated once and binned by order, while
eigenvalues come from a cyclic complex Jacobi iteration on the n x n
Hermitian matrix itself.  Their agreement is a standing cross-check, not an
implementation shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InstanceTooLargeError, NumericError, ValidationError
from .gaincore import GainGraph, SimpleGraph, build_gain_graph, hermitian_matrix, underlying
from .switching import cycle_gain, enumerate_cycles

__all__ = [
    "ElementarySubgraph",
    "CharPoly",
    "Spectrum",
    "enumerate_elementary",
    "real_cycle_gain",
    "char_poly_elementary",
    "determinant",
    "spectrum",
    "cospectral",
    "is_balanced_spectrally",
    "cycle_real_gain_sums",
    "cartesian_product",
]

DEFAULT_ELEMENTARY_CAP = 14
JACOBI_MAX_SWEEPS = 50


@dataclass(frozen=True)
class ElementarySubgraph:
    """A vertex-disjoint union of single edges and cycles (length >= 3)."""

    edges: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return 2 * len(self.edges) + sum(len(c) for c in self.cycles)

    @property
    def num_components(self) -> int:
        return len(self.edges) + len(self.cycles)

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)


def _elementary_by_order(g: SimpleGraph, max_order: int, max_vertices: int) -> list[list[ElementarySubgraph]]:
    """Every elementary subgraph on at most max_order vertices, binned by order.

    One recursion anchors at the smallest vertex not yet decided: either
    leave it uncovered, match it to a free neighbor, or grow a cycle through
    it (cycles are generated once, smallest vertex first, direction fixed by
    second vertex < last vertex).  Each leaf is one subgraph.
    """
    if g.n > max_vertices:
        raise InstanceTooLargeError(
            f"elementary-subgraph enumeration capped at {max_vertices} vertices, graph has {g.n}"
        )
    bins: list[list[ElementarySubgraph]] = [[] for _ in range(max_order + 1)]
    avail = [True] * (g.n + 1)
    edges_acc: list[tuple[int, int]] = []
    cycles_acc: list[tuple[int, ...]] = []

    def rec(order: int, start: int) -> None:
        v = start
        while v <= g.n and not avail[v]:
            v += 1
        if v > g.n or order == max_order:
            bins[order].append(ElementarySubgraph(tuple(edges_acc), tuple(cycles_acc)))
            return
        # leave v uncovered
        avail[v] = False
        rec(order, v + 1)
        if order + 2 <= max_order:
            # match v with a free neighbor (all free vertices are > v here)
            for w in g.neighbors(v):
                if avail[w]:
                    avail[w] = False
                    edges_acc.append((v, w))
                    rec(order + 2, v + 1)
                    edges_acc.pop()
                    avail[w] = True
            # or grow a cycle anchored at v
            if order + 3 <= max_order:
                grow([v], order, v + 1)
        avail[v] = True

    def grow(path: list[int], order: int, resume: int) -> None:
        last = path[-1]
        if len(path) >= 3 and path[1] < last and g.has_edge(last, path[0]):
            cycles_acc.append(tuple(path))
            rec(order + len(path), resume)
            cycles_acc.pop()
        if order + len(path) < max_order:
            for y in g.neighbors(last):
                if avail[y]:
                    avail[y] = False
                    path.append(y)
                    grow(path, order, resume)
                    path.pop()
                    avail[y] = True

    rec(0, 1)
    return bins


def enumerate_elementary(g: SimpleGraph, k: int, max_vertices: int = DEFAULT_ELEMENTARY_CAP) -> list[ElementarySubgraph]:
    """All elementary subgraphs covering exactly k vertices."""
    if not 0 <= k <= g.n:
        raise ValidationError(f"order {k} out of range 0..{g.n}")
    return _elementary_by_order(g, k, max_vertices)[k]


def real_cycle_gain(g: GainGraph, cycle) -> float:
    """Real part of the cycle gain; in {-1, 0, 1} for mixed graphs."""
    return cycle_gain(g, cycle).value.real


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial x^n + a_1 x^(n-1) + ... + a_n."""

    n: int
    coefficients: tuple[float, ...]  # a_1 .. a_n

    def all_coefficients(self) -> tuple[float, ...]:
        return (1.0,) + self.coefficients

    def evaluate(self, x: float) -> float:
        acc = 1.0
        for c in self.coefficients:
            acc = acc * x + c
        return acc


def _coefficients(g: GainGraph, max_vertices: int) -> list[float]:
    """a_0 .. a_n of the characteristic polynomial, from one enumeration.

    a_k sums (-1)^components * 2^cycles * product of real cycle gains over
    all elementary subgraphs on k vertices.
    """
    coeffs = []
    for subs in _elementary_by_order(g.graph, g.graph.n, max_vertices):
        total = 0.0
        for sub in subs:
            term = (-1.0) ** sub.num_components * 2.0 ** sub.num_cycles
            for cyc in sub.cycles:
                term *= cycle_gain(g, cyc).value.real
            total += term
        coeffs.append(total)
    return coeffs


def char_poly_elementary(g: GainGraph, max_vertices: int = DEFAULT_ELEMENTARY_CAP) -> CharPoly:
    """Characteristic polynomial from the elementary-subgraph expansion.

    For group orders 1, 2, 4 every coefficient is an integer; an exactness
    guard enforces that.
    """
    coeffs = _coefficients(g, max_vertices)[1:]
    if g.group.order in (1, 2, 4):
        for k, total in enumerate(coeffs, start=1):
            if abs(total - round(total)) >= 1e-6:
                raise NumericError(f"coefficient a_{k} = {total} drifted off an integer")
    return CharPoly(g.graph.n, tuple(coeffs))


def determinant(g: GainGraph, max_vertices: int = DEFAULT_ELEMENTARY_CAP) -> float:
    """Determinant of the Hermitian adjacency matrix, (-1)^n * a_n."""
    n = g.graph.n
    return (-1.0) ** n * _coefficients(g, max_vertices)[n]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order, each within ``tol * ||H||_F`` of the truth."""

    eigenvalues: tuple[float, ...]
    tol: float


def _jacobi_eigenvalues(h: np.ndarray, tol: float, max_sweeps: int = JACOBI_MAX_SWEEPS) -> list[float]:
    """Cyclic complex Jacobi on a Hermitian matrix; ascending eigenvalues.

    Each pair (p, q) is annihilated by a real rotation, with the angle taken
    from |h_pq| and the diagonal difference, times the phase h_pq / |h_pq|.
    Sweeps run until the off-diagonal Frobenius norm drops below
    tol * ||H||; hitting the sweep cap raises NumericError.
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    target = tol * float(np.sqrt(np.vdot(a, a).real))
    for _ in range(max_sweeps):
        # Sum the off-diagonal entries directly: subtracting the diagonal
        # mass from the total cancels catastrophically once the iteration
        # is nearly converged, stalling the norm around sqrt(eps) * ||H||.
        strict = a - np.diag(np.diag(a))
        off = float(np.sqrt(np.vdot(strict, strict).real))
        if off <= target:
            return sorted(float(a[i, i].real) for i in range(n))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                r = abs(apq)
                diff = (a[q, q] - a[p, p]).real
                if r * 1e150 < abs(diff):
                    # theta would overflow; its large-|theta| limit is exact
                    # to double precision here.
                    t = r / diff
                else:
                    theta = diff / (2.0 * r)
                    t = np.sign(theta) if theta != 0.0 else 1.0
                    t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                phase = apq / r
                rot = np.array([[c, -s * phase], [s, c * phase]])
                a[[p, q], :] = rot @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot.conj().T
                a[p, q] = 0.0
                a[q, p] = 0.0
    raise NumericError(f"Jacobi iteration did not converge in {max_sweeps} sweeps")


# Each entry keeps its graph alive.  The hits that pay are few and recent: an
# orientation's underlying graph in spectral balance, or one graph asked again.
@lru_cache(maxsize=256)
def _spectrum_cached(g: GainGraph, tol: float) -> Spectrum:
    return Spectrum(tuple(_jacobi_eigenvalues(hermitian_matrix(g), tol)), tol)


def spectrum(g: GainGraph, tol: float = 1e-9) -> Spectrum:
    """Eigenvalues of the Hermitian adjacency matrix.

    Cyclic complex Jacobi runs on the n x n Hermitian matrix until its
    off-diagonal Frobenius norm is at most tol * ||H||_F, which by Weyl's
    inequality bounds every eigenvalue's error.  Results are cached on the
    (immutable) graph.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    return _spectrum_cached(g, tol)


def cospectral(a: GainGraph, b: GainGraph, tol: float = 1e-9) -> bool:
    """Whether sorted spectra agree elementwise within tol.

    Graphs of different orders are simply not cospectral (no error).
    """
    if a.graph.n != b.graph.n:
        return False
    sa = spectrum(a, tol).eigenvalues
    sb = spectrum(b, tol).eigenvalues
    return all(abs(x - y) <= tol for x, y in zip(sa, sb))


def is_balanced_spectrally(g: GainGraph, tol: float = 1e-8) -> bool:
    """Spectral balance test: cospectral with the all-ones underlying graph.

    Equivalent to combinatorial balance for mixed graphs only, so non-mixed
    input is rejected rather than silently misclassified.
    """
    if not g.mixed_mode:
        raise ValidationError("spectral balance detection is only valid for mixed graphs")
    return cospectral(g, underlying(g), tol)


def cycle_real_gain_sums(g: GainGraph, max_vertices: int = 12) -> dict[int, float]:
    """Sum of real cycle gains per cycle length, over every simple cycle.

    Lengths with no cycles are omitted.  These sums are the cycle data that
    the spectrum determines; they drive the cospectrality criteria.
    """
    sums: dict[int, float] = {}
    for cyc in enumerate_cycles(g.graph, max_vertices):
        sums[len(cyc)] = sums.get(len(cyc), 0.0) + real_cycle_gain(g, cyc)
    return sums


def cartesian_product(a: GainGraph, b: GainGraph) -> GainGraph:
    """Cartesian product; vertex (x, y) maps to (x - 1) * |V(b)| + y.

    Edges join (x, u)-(x, v) with the gain of (u, v) in b, and (x, u)-(y, u)
    with the gain of (x, y) in a.  The Hermitian matrix of the product equals
    kron(I, H(b)) + kron(H(a), I).
    """
    if a.group != b.group:
        raise ValidationError("gain group mismatch")
    nb = b.graph.n
    entries = []
    for x in range(1, a.graph.n + 1):
        base = (x - 1) * nb
        for (u, v), gain in zip(b.graph.edges, b.gains):
            entries.append((base + u, base + v, gain))
    for (x, y), gain in zip(a.graph.edges, a.gains):
        for u in range(1, nb + 1):
            entries.append(((x - 1) * nb + u, (y - 1) * nb + u, gain))
    return build_gain_graph(
        a.graph.n * nb,
        a.group,
        entries,
        mixed_mode=a.mixed_mode and b.mixed_mode,
    )
