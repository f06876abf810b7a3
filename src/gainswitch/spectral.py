"""Hermitian spectra and characteristic polynomials of gain graphs.

Two routes are kept deliberately separate.  The characteristic polynomial
is assembled combinatorially from elementary subgraphs (edges and cycles
with real cycle gains) by one sum, memoised on the set of vertices not yet
decided, that gives every order at once, with integer coefficients for k in
{1, 2, 3, 4, 6}.  Eigenvalues come from a Householder reduction of the
n x n Hermitian matrix to a real symmetric tridiagonal one, followed by
implicit QL with Wilkinson shifts.  Their agreement is a standing check, not
an implementation shortcut; the tests hold a third route, a cyclic complex
Jacobi iteration that shares no step with the reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from .errors import NumericError, ValidationError
from .gaincore import GainGraph, GainGroup, SimpleGraph, build_gain_graph, hermitian_matrix, underlying
from .gaincore import _check_cap, _exact_int, _root_value
from .switching import DEFAULT_CYCLE_CAP, _pieces, cycle_gain, enumerate_cycles

__all__ = [
    "ElementarySubgraph",
    "CharPoly",
    "Spectrum",
    "enumerate_elementary",
    "char_poly_elementary",
    "determinant",
    "spectrum",
    "cospectral",
    "is_balanced_spectrally",
    "cycle_real_gain_sums",
    "cartesian_product",
]

DEFAULT_ELEMENTARY_CAP = 14
_ELEMENTARY = "elementary-subgraph enumeration"
# The QL iteration raises NumericError past this many steps on one eigenvalue.
QL_MAX_ITERATIONS = 30
# The largest graph order ``spectrum`` takes.  The reduction costs O(n^3) in
# numpy and QL O(n^2) steps in Python floats.  Process time of ``spectrum``
# at tol 1e-9 on a seeded k 4 graph with m = 1.6n (the matrix included; min
# of 3 runs, of 2 from n 700; one process on a shared 2-vCPU host):
#
#     n      96    192    400    600    700    800   1000
#     ms      7     29    187    457    713   1000   1860
#
# At 800 a spectrum takes about a second, and ``classify``'s spectral
# cross-check (two spectra) about two.
SPECTRUM_MAX_ORDER = 800
# The largest Cartesian product ``cartesian_product`` builds, counted in
# vertices and in edges alike.  Process time and peak RSS of squaring a 2 x L
# ladder and writing the product with ``save_gg`` (one process per row, one
# run each, on a shared 2-vCPU host):
#
#     L          50     100     150     200      300
#     edges   29600  119200  268800  478400  1077600
#     s        0.03    0.13    0.32    0.52     1.07
#     MB         38      67     115     183      375
#
# At 500000 a product takes about half a second and under 200 MB.
PRODUCT_MAX_SIZE = 500_000
_EPS = np.finfo(float).eps

# Group orders at which 2 Re of every element is an integer (Niven).
_INTEGER_ORDERS = (1, 2, 3, 4, 6)


@dataclass(frozen=True)
class ElementarySubgraph:
    """A vertex-disjoint union of single edges and cycles (length >= 3)."""

    edges: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return 2 * len(self.edges) + sum(len(c) for c in self.cycles)


def _cycle_weights(group: GainGroup) -> tuple:
    """2 Re(x) for each element x of the group, indexed by exponent.

    Exact ints for k in {1, 2, 3, 4, 6}, the only orders at which every one
    of them is an integer; floats otherwise.
    """
    k = group.order
    w = tuple(2.0 * _root_value(k, t).real for t in range(k))
    return tuple(round(x) for x in w) if k in _INTEGER_ORDERS else w


def enumerate_elementary(g: SimpleGraph, k: int, max_vertices: int = DEFAULT_ELEMENTARY_CAP) -> list[ElementarySubgraph]:
    """All elementary subgraphs covering exactly k vertices.

    Walks ``_pieces`` as ``_coefficients`` does, without its memo: the least
    undecided vertex is left uncovered or covered by one of its pieces that
    avoids every decided vertex, until k vertices are covered.
    """
    k = _exact_int(k, "order")
    if not 0 <= k <= g.n:
        raise ValidationError(f"order {k} out of range 0..{g.n}")
    _check_cap(_ELEMENTARY, g.n, max_vertices, "vertices")
    pieces = _pieces(g, (0,) * g.m, (1,), k)
    found: list[ElementarySubgraph] = []
    edges: list[tuple[int, ...]] = []
    cycles: list[tuple[int, ...]] = []

    def walk(s: int, order: int) -> None:
        if order == k:
            found.append(ElementarySubgraph(tuple(edges), tuple(cycles)))
            return
        if s.bit_count() < k - order:  # too few vertices left, or none
            return
        low = s & -s
        walk(s ^ low, order)
        for mask, _, verts in pieces[low.bit_length() - 1]:
            if s & mask == mask and order + len(verts) <= k:
                acc = edges if len(verts) == 2 else cycles
                acc.append(verts)
                walk(s ^ mask, order + len(verts))
                acc.pop()

    walk((1 << g.n + 1) - 2, 0)
    return found


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


# Cached on graph equality, as ``_spectrum_cached`` is; it pays for ``determinant``
# after ``char_poly_elementary``.  The callers read the cap as an int first, so
# that the cache sees no bool, float or unhashable cap.
@lru_cache(maxsize=1)
def _coefficients(g: GainGraph, max_vertices: int) -> tuple:
    """a_0 .. a_n of the characteristic polynomial, by one memoised sum.

    a_k sums (-1)^components * 2^cycles * product of real cycle gains over
    all elementary subgraphs on k vertices: exact ints for k in
    {1, 2, 3, 4, 6}.  The subgraphs that agree on the vertices below the
    least undecided vertex v share the sum over the rest, which depends only
    on the set S of undecided vertices.  So f(S), the polynomial of orders
    0..|S| summed over S, is f(S - v) plus, for each piece p of v inside S,
    coef_p * x^|p| * f(S - p); it is kept per S, and the answer is f(V).
    """
    _check_cap(_ELEMENTARY, g.graph.n, max_vertices, "vertices")
    pieces = _pieces(g.graph, g.exps, _cycle_weights(g.group), g.graph.n)
    memo: dict[int, list] = {0: [1]}

    def f(s: int) -> list:
        got = memo.get(s)
        if got is None:
            low = s & -s
            got = f(s ^ low) + [0]
            for mask, coef, verts in pieces[low.bit_length() - 1]:
                if s & mask == mask:
                    for j, c in enumerate(f(s ^ mask), len(verts)):
                        got[j] += coef * c
            memo[s] = got
        return got

    return tuple(f((1 << g.graph.n + 1) - 2))


def char_poly_elementary(g: GainGraph, max_vertices: int = DEFAULT_ELEMENTARY_CAP) -> CharPoly:
    """Characteristic polynomial from the elementary-subgraph expansion.

    For group orders 1, 2, 3, 4 and 6 every coefficient is summed as an
    exact integer and stored as its float.
    """
    coeffs = _coefficients(g, _exact_int(max_vertices, f"{_ELEMENTARY} cap"))[1:]
    return CharPoly(g.graph.n, tuple(float(c) for c in coeffs))


def determinant(g: GainGraph, max_vertices: int = DEFAULT_ELEMENTARY_CAP) -> float:
    """Determinant of the Hermitian adjacency matrix, (-1)^n * a_n."""
    n = g.graph.n
    return float((-1) ** n * _coefficients(g, _exact_int(max_vertices, f"{_ELEMENTARY} cap"))[n])


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order, each within ``tol * ||H||_F`` of the truth.

    QL splits the tridiagonal matrix at off-diagonal entries of at most
    tol * ||H||_F / (n - 1); each split moves every eigenvalue by at most
    that entry (Weyl), and there are at most n - 1 of them.
    """

    eigenvalues: tuple[float, ...]
    tol: float


# _tridiagonal hands the trailing block to Python lists from this many rows
# down, where a step's dozen numpy calls cost more than its entries do.
# Process time of _tridiagonal in microseconds by _PY_TAIL (min of 5 runs of
# 200 calls on 10 seeded k 4 graphs with m = 1.6n; one process on a shared
# 2-vCPU host; 2 is the numpy reduction alone):
#
#     n         3     4     5     6     7     8    10    16    24    48
#     2      13.6  25.0  35.8  48.1  59.4  74.0  96.4   166   278   696
#     4       8.0  17.0  30.4  42.8  54.9  65.6  90.9   162   262   671
#     5       7.9  16.6  28.6  42.6  54.0  65.5  88.4   158   268   676
#     6       7.5  16.5  27.8  41.8  56.4  68.3  93.6   165   266   674
#     8       7.4  16.3  27.9  42.1  60.3  80.8   110   185   286   683
#    12       7.6  15.5  27.1  41.4  58.3  79.6   138   264   377   791
_PY_TAIL = 5


def _tridiagonal(h: np.ndarray) -> tuple[list[float], list[float]]:
    """Diagonal and off-diagonal of a real symmetric tridiagonal matrix similar to h.

    Householder reduction (Golub and Van Loan, *Matrix Computations*,
    section 8.3): step k maps column k below the diagonal onto its first
    entry by the Hermitian reflection P = I - tau v v^H, and updates the
    trailing block S <- P S P = S - v w^H - w v^H, with p = tau S v and
    w = p - (tau / 2)(v^H p) v.  The off-diagonal that results is complex;
    a unitary diagonal scaling turns it into its moduli, so only those are
    kept.  Once the trailing block has at most ``_PY_TAIL`` rows, its steps
    run on Python complex lists (``_tridiagonal_tail``).
    """
    n = len(h)
    tail = max(0, n - _PY_TAIL)  # the first row of the block left to _tridiagonal_tail
    d, e = [], []
    if tail:
        a = np.array(h, dtype=complex)
        for k in range(tail):
            x = a[k + 1 :, k]
            norm = math.sqrt(np.vdot(x, x).real)
            e.append(norm)
            if norm == 0.0:
                continue
            x0 = complex(x[0])
            r0 = abs(x0)
            v = x.copy()
            v[0] += x0 * (norm / r0) if r0 else norm
            tau = 1.0 / (norm * (norm + r0))  # 2 / (v^H v)
            s = a[k + 1 :, k + 1 :]
            p = tau * (s @ v)
            w = p - (0.5 * tau * np.vdot(v, p).real) * v
            s -= np.array((v, w)).T @ np.array((w.conj(), v.conj()))  # v w^H + w v^H in one pass over S
        d = a.real.diagonal()[:tail].tolist()
        h = a[tail:, tail:]
    _tridiagonal_tail(np.asarray(h, dtype=complex).tolist(), d, e)
    return d, e


def _tridiagonal_tail(s: list[list[complex]], d: list[float], e: list[float]) -> None:
    """``_tridiagonal``'s steps on its last block s, as lists of Python complex.

    The same reflections as the numpy steps, one entry at a time, each step
    leaving the next trailing block as new lists; appends the diagonal to d
    and the off-diagonal moduli to e.  Each block is updated whole, so it
    stays Hermitian entry for entry.
    """
    while len(s) > 2:
        d.append(s[0][0].real)
        v = [row[0] for row in s[1:]]  # x, column 0 below the diagonal, made into v
        norm = math.sqrt(sum([z.real * z.real + z.imag * z.imag for z in v]))
        e.append(norm)
        s = [row[1:] for row in s[1:]]
        if norm == 0.0:
            continue
        x0 = v[0]
        r0 = abs(x0)
        v[0] = x0 + (x0 * (norm / r0) if r0 else norm)
        tau = 1.0 / (norm * (norm + r0))
        p = [tau * sum(map(mul, row, v)) for row in s]
        half = 0.5 * tau * sum([y.real * z.real + y.imag * z.imag for y, z in zip(v, p)])  # (tau / 2) Re v^H p
        w = [z - half * y for z, y in zip(p, v)]
        vc = [y.conjugate() for y in v]
        wc = [z.conjugate() for z in w]
        s = [[a - (vi * x + wi * y) for a, x, y in zip(row, wc, vc)] for row, vi, wi in zip(s, v, w)]  # S - v w^H - w v^H
    d += [row[i].real for i, row in enumerate(s)]
    if len(s) == 2:
        e.append(abs(s[1][0]))


def _ql_eigenvalues(d: list[float], e: list[float], split: float) -> list[float]:
    """Implicit QL with Wilkinson shifts on the tridiagonal (d, e); ascending eigenvalues.

    The classic ``tqli`` (Parlett, *The Symmetric Eigenvalue Problem*,
    ch. 8), on Python floats.  e_i is split off, and counts as zero, once
    |e_i| <= split or |e_i| <= eps (|d_i| + |d_i+1|); the second test only
    matters when split is below the rounding of d.  More than
    ``QL_MAX_ITERATIONS`` steps on one eigenvalue raise NumericError.
    """
    n = len(d)
    d, e = list(d), list(e) + [0.0]
    cap = QL_MAX_ITERATIONS
    for lo in range(n):
        steps = 0
        while True:
            m = lo
            while m < n - 1:
                f = abs(e[m])
                if f <= split or f <= _EPS * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == lo:
                break
            if steps == cap:
                raise NumericError(f"QL iteration did not converge in {cap} steps")
            steps += 1
            # the shift: the eigenvalue of the leading 2 x 2 block nearer d[lo]
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = math.hypot(g, 1.0)
            g = d[m] - d[lo] + e[lo] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # an exact split inside the block: start the step again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[lo] -= p
                e[lo] = g
                e[m] = 0.0
    return sorted(d)


# Each entry keeps its graph alive.  The hits that pay are few and recent: an
# orientation's underlying graph in spectral balance, or one graph asked again.
# Hits by maxsize, over 400 sweep_small rounds (seeds 1 and 2) and acceptance
# criterion 6:
#   maxsize          4-8    16-24   28-240   256
#   sweep_small 1      6     2398     2398    2398  of 4800 calls
#   sweep_small 2      4     2396     2396    2396  of 4800
#   criterion 6    24140    24140    24192   24193  of 48276
# spectra_mid (60 rounds, 1215 calls) and cli_reports (20 rounds, 120 calls) hit
# at no size; census_mid and decide_large make no call.  The one hit that only
# sizes past 240 keep is a graph met again by chance, 240 calls later.
@lru_cache(maxsize=32)
def _spectrum_cached(g: GainGraph, tol: float) -> Spectrum:
    n = g.graph.n
    _check_cap("Hermitian spectrum", n, SPECTRUM_MAX_ORDER, "vertices")
    # every gain has modulus 1, so ||H||_F^2 = 2m
    split = tol * math.sqrt(2 * g.graph.m) / max(1, n - 1)
    return Spectrum(tuple(_ql_eigenvalues(*_tridiagonal(hermitian_matrix(g)), split)), tol)


def spectrum(g: GainGraph, tol: float = 1e-9) -> Spectrum:
    """Eigenvalues of the Hermitian adjacency matrix.

    Householder reflections reduce the n x n Hermitian matrix H to a real
    symmetric tridiagonal one, and implicit QL with Wilkinson shifts finds
    its eigenvalues.  QL splits off an off-diagonal entry once it is at most
    tol * ||H||_F / (n - 1); by Weyl's inequality each split moves every
    eigenvalue by at most that much, so every eigenvalue is within
    tol * ||H||_F of the truth, up to double-precision rounding.  Results
    are cached on the (immutable) graph.  Graphs of more than
    ``SPECTRUM_MAX_ORDER`` vertices raise ``InstanceTooLargeError`` before
    any matrix is built.
    """
    _check_tol(tol)
    return _spectrum_cached(g, tol)


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:  # NaN fails too
        raise ValidationError("tol must be positive and finite")


def cospectral(a: GainGraph, b: GainGraph, tol: float = 1e-9) -> bool:
    """Whether sorted spectra agree elementwise within tol.

    Graphs of different orders are simply not cospectral (no error), once
    tol is valid.
    """
    _check_tol(tol)
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


def cycle_real_gain_sums(g: GainGraph, max_vertices: int = DEFAULT_CYCLE_CAP) -> dict[int, float]:
    """Sum of real cycle gains per cycle length, over every simple cycle.

    Each real cycle gain lies in {-1, 0, 1} for mixed graphs.  Lengths with
    no cycles are omitted.  These sums are the cycle data that the spectrum
    determines; they drive the cospectrality criteria.
    """
    sums: dict[int, float] = {}
    for cyc in enumerate_cycles(g.graph, max_vertices):
        sums[len(cyc)] = sums.get(len(cyc), 0.0) + cycle_gain(g, cyc).value.real
    return sums


def cartesian_product(a: GainGraph, b: GainGraph) -> GainGraph:
    """Cartesian product; vertex (x, y) maps to (x - 1) * |V(b)| + y.

    Edges join (x, u)-(x, v) with the gain of (u, v) in b, and (x, u)-(y, u)
    with the gain of (x, y) in a.  The Hermitian matrix of the product equals
    kron(I, H(b)) + kron(H(a), I).  A product of more than
    ``PRODUCT_MAX_SIZE`` vertices or edges raises ``InstanceTooLargeError``
    before any entry is built.
    """
    if a.group != b.group:
        raise ValidationError("gain group mismatch")
    nb = b.graph.n
    _check_cap("Cartesian product", a.graph.n * nb, PRODUCT_MAX_SIZE, "vertices")
    _check_cap("Cartesian product", a.graph.n * b.graph.m + a.graph.m * nb, PRODUCT_MAX_SIZE, "edges")
    entries = []
    for x in range(1, a.graph.n + 1):
        base = (x - 1) * nb
        for u, v, t in zip(b.graph.tails, b.graph.heads, b.exps):
            entries.append((base + u, base + v, t))
    for x, y, t in zip(a.graph.tails, a.graph.heads, a.exps):
        for u in range(1, nb + 1):
            entries.append(((x - 1) * nb + u, (y - 1) * nb + u, t))
    return build_gain_graph(
        a.graph.n * nb,
        a.group,
        entries,
        mixed_mode=a.mixed_mode and b.mixed_mode,
    )
