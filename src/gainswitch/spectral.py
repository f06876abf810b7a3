"""Hermitian spectra and characteristic polynomials of gain graphs.

Three routes are kept deliberately separate.  The characteristic polynomial
is assembled combinatorially from elementary subgraphs (edges and cycles
with real cycle gains) in one recursion that sums every order at once, with
integer coefficients for k in {1, 2, 3, 4, 6}.  Eigenvalues come from a
Householder reduction of the n x n Hermitian matrix to a real symmetric
tridiagonal one, followed by implicit QL with Wilkinson shifts.  A cyclic
complex Jacobi iteration in the round-robin ordering, which shares no step
with the reduction, is kept as the eigenvalues' cross-check.  Their
agreement is a standing check, not an implementation shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ValidationError
from .gaincore import GainGraph, GainGroup, SimpleGraph, build_gain_graph, hermitian_matrix, underlying
from .gaincore import _check_cap, _exact_int
from .switching import DEFAULT_CYCLE_CAP, cycle_gain, enumerate_cycles

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
JACOBI_MAX_SWEEPS = 50
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
_NORMAL_MIN = np.finfo(float).tiny
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
    w = tuple(2.0 * x.value.real for x in group.elements())
    return tuple(round(x) for x in w) if group.order in _INTEGER_ORDERS else w


def _elementary(g: SimpleGraph, exps, weights, max_order: int, max_vertices: int, leaf) -> None:
    """Call ``leaf(order, term, edges, cycles)`` once per elementary subgraph on at most max_order vertices.

    One recursion anchors at the smallest vertex not yet decided: either
    leave it uncovered, match it to a free neighbor, or grow a cycle through
    it (cycles are generated once, smallest vertex first, direction fixed by
    second vertex < last vertex).  ``exps[e]`` is the exponent of edge id e
    in its u < v orientation, and the running term is
    (-1)^components times the product of ``weights[t]`` over the cycles, t
    being the cycle's exponent sum mod len(weights).  ``edges`` and
    ``cycles`` are the live accumulators, valid only during the call.
    """
    n = g.n
    _check_cap(_ELEMENTARY, n, max_vertices, "vertices")
    k = len(weights)
    out: list[dict[int, int]] = [{} for _ in range(n + 1)]  # neighbor -> exponent, ascending
    for u, v, x in zip(g.tails, g.heads, exps):
        out[u][v] = x
        out[v][u] = -x
    avail = [True] * (n + 1)
    edges_acc: list[tuple[int, int]] = []
    cycles_acc: list[tuple[int, ...]] = []

    def rec(order: int, start: int, term) -> None:
        v = start
        while v <= n and not avail[v]:
            v += 1
        if v > n or order == max_order:
            leaf(order, term, edges_acc, cycles_acc)
            return
        avail[v] = False
        rec(order, v + 1, term)
        if order + 2 <= max_order:
            # match v with a free neighbor (all free vertices are > v here)
            for w in out[v]:
                if avail[w]:
                    avail[w] = False
                    edges_acc.append((v, w))
                    rec(order + 2, v + 1, -term)
                    edges_acc.pop()
                    avail[w] = True
            # or grow a cycle anchored at v through a second vertex y: it can
            # only close on a free neighbor of v above y, so grow while one is left
            if order + 3 <= max_order:
                nbrs = out[v]
                for y, x in nbrs.items():
                    if avail[y]:
                        left = sum(avail[z] for z in nbrs if z > y)
                        if left:
                            avail[y] = False
                            grow([v, y], x, order, v + 1, term, left)
                            avail[y] = True
        avail[v] = True

    def grow(path: list[int], t: int, order: int, resume: int, term, left: int) -> None:
        # left: the free neighbors of the anchor path[0] above path[1]
        last = path[-1]
        if len(path) >= 3 and path[1] < last:
            closing = out[last].get(path[0])
            if closing is not None:
                cycles_acc.append(tuple(path))
                rec(order + len(path), resume, -term * weights[(t + closing) % k])
                cycles_acc.pop()
        if left and order + len(path) < max_order:
            anchor, second = out[path[0]], path[1]
            for y, x in out[last].items():
                if avail[y]:
                    avail[y] = False
                    path.append(y)
                    grow(path, t + x, order, resume, term, left - (y > second and y in anchor))
                    path.pop()
                    avail[y] = True

    rec(0, 1, 1)


def enumerate_elementary(g: SimpleGraph, k: int, max_vertices: int = DEFAULT_ELEMENTARY_CAP) -> list[ElementarySubgraph]:
    """All elementary subgraphs covering exactly k vertices."""
    k = _exact_int(k, "order")
    if not 0 <= k <= g.n:
        raise ValidationError(f"order {k} out of range 0..{g.n}")
    found: list[ElementarySubgraph] = []

    def keep(order: int, _term, edges, cycles) -> None:
        if order == k:
            found.append(ElementarySubgraph(tuple(edges), tuple(cycles)))

    _elementary(g, (0,) * g.m, (1,), k, max_vertices, keep)
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
    """a_0 .. a_n of the characteristic polynomial, from one enumeration.

    a_k sums (-1)^components * 2^cycles * product of real cycle gains over
    all elementary subgraphs on k vertices: exact ints for k in
    {1, 2, 3, 4, 6}.
    """
    n = g.graph.n
    totals = [0] * (n + 1)

    def add(order: int, term, _edges, _cycles) -> None:
        totals[order] += term

    _elementary(g.graph, g.exps, _cycle_weights(g.group), n, max_vertices, add)
    return tuple(totals)


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


def _tridiagonal(h: np.ndarray) -> tuple[list[float], list[float]]:
    """Diagonal and off-diagonal of a real symmetric tridiagonal matrix similar to h.

    Householder reduction (Golub and Van Loan, *Matrix Computations*,
    section 8.3): step k maps column k below the diagonal onto its first
    entry by the Hermitian reflection P = I - tau v v^H, and updates the
    trailing block S <- P S P = S - v w^H - w v^H, with p = tau S v and
    w = p - (tau / 2)(v^H p) v.  The off-diagonal that results is complex;
    a unitary diagonal scaling turns it into its moduli, so only those are
    kept.
    """
    a = np.array(h, dtype=complex)
    n = len(a)
    e = []
    for k in range(n - 2):
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
    if n > 1:
        e.append(abs(complex(a[n - 1, n - 2])))
    return a.real.diagonal().tolist(), e


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


@lru_cache(maxsize=64)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """One Jacobi sweep over an n x n matrix in the round-robin ordering.

    Brent and Luk's ordering (SIAM J. Sci. Stat. Comput. 6, 1985): seat the
    indices at a round table, pair each seat with the one across, and turn
    every seat but the first by one between rounds.  Odd n gets a phantom
    seat whose partner sits the round out.  Every pair meets exactly once in
    n - 1 rounds (n rounds for odd n) of floor(n / 2) disjoint pairs.

    Each round is ``(p, q, read, write, clear)``: its pairs as index arrays
    with p < q, and flat indices into the matrix, ``read`` for the rows
    (a_pq, a_pp, a_qq), ``write`` for the rotation's (pp, pq, qp, qq)
    entries and ``clear`` for the annihilated (pq, qp) entries.
    """
    seats = list(range(n + n % 2))
    half = len(seats) // 2
    rounds = []
    for _ in range(len(seats) - 1):
        pairs = sorted(
            (min(x, y), max(x, y)) for x, y in zip(seats[:half], reversed(seats[half:])) if max(x, y) < n
        )
        if pairs:
            p, q = (np.array(side, dtype=np.intp) for side in zip(*pairs))
            pp, pq, qp, qq = p * (n + 1), p * n + q, q * n + p, q * (n + 1)
            rounds.append((p, q, np.stack((pq, pp, qq)), np.concatenate((pp, pq, qp, qq)), np.concatenate((pq, qp))))
        seats = seats[:1] + seats[-1:] + seats[1:-1]
    return tuple(rounds)


def _jacobi_eigenvalues(h: np.ndarray, tol: float, max_sweeps: int = JACOBI_MAX_SWEEPS) -> list[float]:
    """Cyclic complex Jacobi in the round-robin ordering; ascending eigenvalues.

    Each pair (p, q) is annihilated by a real rotation, with the angle taken
    from |h_pq| and the diagonal difference, times the phase h_pq / |h_pq|;
    a pair with h_pq = 0 (or subnormal) gets the identity.  The pairs of one
    round of ``_round_robin`` are disjoint, so their rotations commute and
    are applied at once, as one unitary J with A <- J A J^H.  A round holds
    at most n / 2 pairs, so its angles are plain float arithmetic on the
    entries read out once.  Sweeps run until the off-diagonal Frobenius norm
    drops below tol * ||H||; hitting the sweep cap raises NumericError.
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    target = tol * float(np.sqrt(np.vdot(a, a).real))
    rounds = _round_robin(n)
    eye = np.eye(n, dtype=complex)
    for _ in range(max_sweeps):
        # Sum the off-diagonal entries directly: subtracting the diagonal
        # mass from the total cancels catastrophically once the iteration
        # is nearly converged, stalling the norm around sqrt(eps) * ||H||.
        strict = a - np.diag(np.diag(a))
        off = float(np.sqrt(np.vdot(strict, strict).real))
        if off <= target:
            return sorted(a.real.diagonal().tolist())
        for _, _, read, write, clear in rounds:
            rows = a.take(read)
            # numpy's modulus: abs() of a Python complex rounds differently
            moduli = np.abs(rows[0]).tolist()
            cs, ss, pqs, qqs = [], [], [], []
            for apq, app, aqq, r in zip(*rows.tolist(), moduli):
                if r < _NORMAL_MIN:
                    # A subnormal h_pq has neither an accurate modulus nor a
                    # phase (1 / r overflows), so it counts as zero: identity.
                    c, s, zero = 1.0, 0.0, 1.0
                else:
                    diff = aqq.real - app.real
                    if r * 1e150 < abs(diff):
                        # theta = diff / 2r would overflow; r / diff is the
                        # large-|theta| limit of t, exact to double precision.
                        t = r / diff
                    else:
                        theta = diff / (2.0 * r)
                        t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                        if theta < 0.0:
                            t = -t
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    s = t * c
                    zero = 0.0
                # adding zero (0.0 or 1.0) also clears a -0.0 part, which fixes
                # the signs of zeros in J and so in the eigenvalues
                phase = apq * (1.0 / (r + zero)) + zero
                cs.append(c)
                ss.append(s)
                pqs.append(-s * phase)
                qqs.append(c * phase)
            j = eye.copy()
            j.put(write, cs + pqs + ss + qqs)
            a = j @ a @ j.conj().T
            a.put(clear, 0.0)
    raise NumericError(f"Jacobi iteration did not converge in {max_sweeps} sweeps")


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
