"""Characteristic polynomials, Hermitian spectra, and spectral characterizations.

Claims covered:
    - enumerate_elementary matches a brute-force edge-subset oracle, and
      grows no cycle longer than the order it lists
    - char_poly_elementary matches numpy's eigenvalue-based polynomial
    - char_poly_elementary and determinant equal sympy's exact charpoly/det
      for k 1/2/3/4/6; determinant is (-1)^n a_n bit for bit at float k
    - the memoised sum over pieces equals the unpruned one-subgraph-at-a-time
      recursion: == for k 1/2/3/4/6, within 1e-12 of the terms' absolute sum
      for k 5/7/8; it equals the sum over enumerate_elementary's lists too
    - at the 14-vertex cap, sparse graphs at k 2 and 4 equal sympy's exact
      charpoly and det; edgeless graphs and K2 give the known tuples
    - one char poly and determinant of a graph build one piece list
    - the round-robin schedule meets every pair once per sweep, in rounds
      of disjoint pairs
    - the cyclic Jacobi iteration kept here, the second eigenvalue route,
      fires every guard (subnormal, exact zero and overflowing-theta pairs)
      and stays within tol * ||H||_F of eigvalsh there
    - spectrum matches numpy.linalg.eigvalsh within 1e-9, and within
      tol * ||H||_F up to n 48, on graphs with isolated vertices and several
      components, and at loose tol without ever raising
    - spectrum's Householder + QL route is within tol * ||H||_F of eigvalsh,
      and within twice that of the Jacobi iteration, for n 0-48, k 1-8 and
      tol 1e-14 to 1e-2, in ascending order; on repeated eigenvalues (K_n,
      cycles, products), on edgeless graphs, at n 200, and at tols from the
      smallest subnormal to near the largest float without raising; QL
      splits off exactly the entries at most tol * ||H||_F / (n - 1); past
      the QL step cap it raises NumericError
    - the reduction's hand-off to Python lists at ``_PY_TAIL`` rows keeps
      every eigenvalue within tol * ||H||_F of eigvalsh and of the Jacobi
      iteration at every n up to ``_PY_TAIL`` + 4 and at n 24 and 48, k 1-8,
      on random graphs, stars, perfect matchings and graphs with isolated
      vertices, whose columns reduce to zero in both phases
    - past SPECTRUM_MAX_ORDER vertices spectrum refuses before building the
      matrix, reading the cap on a cache miss only
    - switching preserves spectra and coefficients
    - bipartite graphs have symmetric spectra; the nonzero-cycle-sum
      converse recovers bipartiteness; the one-arc triangle is the counterexample
    - spectral balance equals combinatorial balance on mixed graphs
    - Cartesian products realize the Kronecker-sum identity; past
      PRODUCT_MAX_SIZE vertices or edges a product refuses before building it
"""

import collections
import functools
import itertools
import math
import random

import numpy as np
import pytest

import gainswitch as gs
from gainswitch.errors import InstanceTooLargeError, NumericError, ValidationError

from conftest import (
    G4,
    all_ones,
    complete_graph,
    cycle_graph,
    arc_triangle,
    bowtie_i,
    bowtie_minus,
    mixed,
    path_graph,
    random_connected_graph,
    random_gains,
    random_switching,
)


def oracle_elementary(graph, k):
    """Elementary subgraphs of order k by filtering all edge subsets."""
    found = []
    for r in range(0, graph.m + 1):
        for subset in itertools.combinations(range(graph.m), r):
            deg = {}
            for e in subset:
                u, v = graph.edges[e]
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if len(deg) != k or any(d > 2 for d in deg.values()):
                continue
            if _is_elementary(graph, subset, deg):
                found.append(frozenset(subset))
    return found


def _is_elementary(graph, subset, deg):
    adj = {v: [] for v in deg}
    for e in subset:
        u, v = graph.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    for start in deg:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        edges_in = sum(1 for e in subset if graph.edges[e][0] in comp)
        if len(comp) == 2 and edges_in == 1:
            continue
        if len(comp) >= 3 and edges_in == len(comp) and all(deg[v] == 2 for v in comp):
            continue
        return False
    return True


def oracle_spectrum(g):
    return np.sort(np.linalg.eigvalsh(gs.hermitian_matrix(g)))


def oracle_coefficients(g):
    return np.poly(oracle_spectrum(g))


def test_enumerate_elementary_known_counts():
    tri = complete_graph(3)
    assert len(gs.enumerate_elementary(tri, 2)) == 3
    assert len(gs.enumerate_elementary(tri, 3)) == 1
    c4 = cycle_graph(4)
    assert len(gs.enumerate_elementary(c4, 4)) == 3
    assert len(gs.enumerate_elementary(c4, 1)) == 0


def test_enumerate_elementary_matches_oracle(rng):
    for _ in range(15):
        graph = random_connected_graph(rng, n_hi=6)
        for k in range(0, graph.n + 1):
            subs = gs.enumerate_elementary(graph, k)
            got = set()
            for sub in subs:
                ids = {graph.edge_id(u, v) for u, v in sub.edges}
                for cyc in sub.cycles:
                    ids |= _cycle_edge_set(graph, cyc)
                got.add(frozenset(ids))
            assert len(got) == len(subs)  # no duplicates
            assert got == set(oracle_elementary(graph, k))


def _cycle_edge_set(graph, cycle):
    walk = list(cycle) + [cycle[0]]
    return {graph.edge_id(a, b) for a, b in zip(walk, walk[1:])}


def test_elementary_cap():
    with pytest.raises(InstanceTooLargeError):
        gs.enumerate_elementary(complete_graph(6), 3, max_vertices=5)


def test_enumerate_elementary_grows_no_cycle_past_the_order(monkeypatch):
    # the triangles of K10 are listed without first listing its longer cycles
    built = []
    pieces = gs.spectral._pieces

    def keeping(*args):
        built.append(pieces(*args))
        return built[-1]

    monkeypatch.setattr(gs.spectral, "_pieces", keeping)
    assert len(gs.enumerate_elementary(complete_graph(10), 3)) == 120
    (listed,) = built
    assert max(len(verts) for anchored in listed for _, _, verts in anchored) == 3


def test_char_poly_frozen_examples():
    k2 = all_ones(path_graph(2))
    assert gs.char_poly_elementary(k2).all_coefficients() == (1.0, 0.0, -1.0)
    assert gs.char_poly_elementary(arc_triangle()).all_coefficients() == (1.0, 0.0, -3.0, 0.0)
    k3 = all_ones(complete_graph(3))
    assert gs.char_poly_elementary(k3).all_coefficients() == (1.0, 0.0, -3.0, -2.0)


def test_char_poly_matches_numpy(rng):
    for _ in range(40):
        graph = random_connected_graph(rng, n_hi=8)
        g = random_gains(rng, graph, k=rng.choice([2, 4]))
        coeffs = np.array(gs.char_poly_elementary(g).all_coefficients())
        want = oracle_coefficients(g)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(coeffs - want).max() < 1e-9 * scale


def test_char_poly_integer_for_small_orders(rng):
    for _ in range(20):
        graph = random_connected_graph(rng, n_hi=7)
        g = random_gains(rng, graph, k=4, mixed_mode=True)
        for a in gs.char_poly_elementary(g).coefficients:
            assert a == round(a)


def test_coefficients_are_ints_at_the_integer_orders(rng):
    # exact at k in {1, 2, 3, 4, 6}, floats at the other orders
    for k in range(1, 9):
        for _ in range(4):
            g = random_gains(rng, random_connected_graph(rng, n_hi=7), k=k)
            values = (*gs.char_poly_elementary(g).coefficients, gs.determinant(g))
            assert {type(a) for a in values} == ({int} if k in (1, 2, 3, 4, 6) else {float})
    assert gs.char_poly_elementary(arc_triangle()).all_coefficients() == (1, 0, -3, 0)


def test_char_poly_evaluate():
    poly = gs.char_poly_elementary(arc_triangle())
    assert abs(poly.evaluate(2.0) - 2.0) < 1e-12  # 8 - 6
    for lam in gs.spectrum(arc_triangle()).eigenvalues:
        assert abs(poly.evaluate(lam)) < 1e-9


def test_determinant():
    assert gs.determinant(all_ones(path_graph(2))) == -1.0
    assert gs.determinant(arc_triangle()) == 0.0
    assert gs.determinant(all_ones(complete_graph(3))) == 2.0
    rng = random.Random(23)
    for _ in range(20):
        graph = random_connected_graph(rng, n_hi=7)
        g = random_gains(rng, graph, k=4)
        want = np.linalg.det(gs.hermitian_matrix(g)).real
        assert abs(gs.determinant(g) - want) < 1e-8 * max(1.0, abs(want))


def test_char_poly_and_determinant_match_sympy(rng):
    # Exact oracle: each gain is a power of a symbol z standing for a
    # primitive k-th root of unity (I for k = 4, omega = (-1 + sqrt(-3))/2 for
    # k = 3), reduced modulo the cyclotomic polynomial Phi_k(z).  For these k
    # 2 Re of every gain is an integer, so every coefficient is one too, and
    # the expansion must produce it exactly.
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    for k in (1, 2, 3, 4, 6):
        phi = sympy.cyclotomic_poly(k, z)
        for _ in range(8):
            g = random_gains(rng, random_connected_graph(rng, n_hi=7), k=k)
            n = g.graph.n
            m = sympy.zeros(n, n)
            for (u, v), gain in zip(g.graph.edges, g.gains):
                m[u - 1, v - 1] = z ** gain.exp
                m[v - 1, u - 1] = z ** (-gain.exp % k)
            want = [sympy.rem(c, phi, z) for c in m.charpoly().all_coeffs()]
            det = sympy.rem(m.det(), phi, z)
            assert all(c.is_Integer for c in want) and det.is_Integer
            assert gs.char_poly_elementary(g).all_coefficients() == tuple(int(c) for c in want)
            assert gs.determinant(g) == int(det)


def test_determinant_is_the_last_coefficient_at_float_orders(rng):
    # determinant reads a_n from the one expansion char_poly_elementary ran
    # (kept by _coefficients' cache), so even float weights agree bit for bit
    for k in (5, 8):
        for _ in range(10):
            g = random_gains(rng, random_connected_graph(rng, n_hi=8), k=k)
            a_n = gs.char_poly_elementary(g).coefficients[-1]
            assert gs.determinant(g) == (-1) ** g.graph.n * a_n


def test_char_poly_then_determinant_walk_once(monkeypatch):
    # each pass of the memoised sum builds its piece list once
    walks = []
    pieces = gs.spectral._pieces

    def counting(*args):
        walks.append(args[0])
        return pieces(*args)

    monkeypatch.setattr(gs.spectral, "_pieces", counting)
    gs.spectral._coefficients.cache_clear()
    g = bowtie_i()
    poly = gs.char_poly_elementary(g)
    assert gs.determinant(g) == gs.determinant(bowtie_i()) == (-1) ** g.graph.n * poly.coefficients[-1]
    assert walks == [g.graph]
    gs.determinant(bowtie_minus())  # another graph: a pass of its own
    assert len(walks) == 2


def test_real_cycle_gain():
    assert gs.cycle_gain(all_ones(cycle_graph(3)), (1, 2, 3)).value.real == 1.0
    assert gs.cycle_gain(arc_triangle(), (1, 2, 3)).value.real == 0.0
    neg = mixed(3, [(1, 2, 1), (2, 3, 1), (3, 1, 0)])
    assert gs.cycle_gain(neg, (1, 2, 3)).value.real == -1.0


def test_spectrum_frozen_examples():
    assert gs.spectrum(all_ones(path_graph(2))).eigenvalues == pytest.approx((-1.0, 1.0), abs=1e-12)
    s = gs.spectrum(arc_triangle()).eigenvalues
    want = (-math.sqrt(3), 0.0, math.sqrt(3))
    assert max(abs(a - b) for a, b in zip(s, want)) < 1e-9


def _scattered_graph(rng, n):
    """Two or three random connected pieces on shuffled labels, plus isolated vertices."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    isolated = rng.randint(1, 4)
    cuts = sorted(rng.sample(range(2, n - isolated - 1), rng.randint(1, 2)))
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [n - isolated]):
        piece = random_connected_graph(rng, n_lo=hi - lo, n_hi=hi - lo, m_cap=2 * (hi - lo))
        edges += [(labels[lo + u - 1], labels[lo + v - 1]) for u, v in piece.edges]
    return gs.SimpleGraph(n, edges)


def test_spectrum_matches_numpy(rng):
    for _ in range(50):
        graph = random_connected_graph(rng, n_hi=9)
        g = random_gains(rng, graph, k=rng.choice([2, 3, 4, 6]))
        got = np.array(gs.spectrum(g).eigenvalues)
        want = oracle_spectrum(g)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() < 1e-9 * scale
        assert list(got) == sorted(got)


def test_spectrum_matches_numpy_large_and_disconnected(rng):
    # odd and even n; in the scattered graphs every round holds zero pairs,
    # and the late sweeps of a tight tol meet subnormal off-diagonal entries
    for n in (20, 21, 27, 32, 33, 47, 48):
        for k in (2, 3, 4, 6):
            connected = random_connected_graph(rng, n_lo=n, n_hi=n, m_cap=2 * n)
            for graph in (connected, _scattered_graph(rng, n)):
                g = random_gains(rng, graph, k=k)
                want = oracle_spectrum(g)
                bound = np.linalg.norm(gs.hermitian_matrix(g))  # ||H||_F
                for tol in (1e-9, 1e-13):
                    got = np.array(gs.spectrum(g, tol).eigenvalues)
                    assert np.abs(got - want).max() <= tol * bound
                    assert list(got) == sorted(got)


JACOBI_MAX_SWEEPS = 50


@functools.lru_cache(maxsize=64)
def round_robin(n):
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


def test_round_robin_schedule():
    for n in range(34):
        rounds = round_robin(n)
        assert len(rounds) == (n - 1 + n % 2 if n > 1 else 0)
        met = []
        for p, q, *_ in rounds:
            assert len(set(p.tolist() + q.tolist())) == 2 * len(p)  # disjoint
            assert (p < q).all() and len(p) == n // 2
            met += zip(p.tolist(), q.tolist())
        assert sorted(met) == list(itertools.combinations(range(n), 2))


def vectorized_jacobi(h, tol, hits=None):
    """Cyclic complex Jacobi in the round-robin ordering; ascending eigenvalues.

    The tests' second eigenvalue route, sharing no step with Householder +
    QL.  Each pair (p, q) is annihilated by a real rotation, with the angle
    taken from |h_pq| and the diagonal difference, times the phase
    h_pq / |h_pq|; a pair with h_pq = 0 (or subnormal) gets the identity,
    and one with |a_qq - a_pp| > 1e150 |h_pq| takes t = |h_pq| / diff, the
    large-theta limit, as theta would overflow.  The pairs of one round of
    ``round_robin`` are disjoint, so their rotations commute and are applied
    at once, as one unitary J with A <- J A J^H, the angles of a round as
    whole-array numpy operations.  Sweeps run until the off-diagonal
    Frobenius norm drops below tol * ||H||; past ``JACOBI_MAX_SWEEPS`` it
    raises NumericError.  ``hits`` counts the rounds in which each guard
    fired.
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    target = tol * float(np.sqrt(np.vdot(a, a).real))
    eye = np.eye(n, dtype=complex)
    for _ in range(JACOBI_MAX_SWEEPS):
        # the off-diagonal entries summed directly: subtracting the diagonal
        # mass from the total cancels once the iteration has nearly converged
        strict = a - np.diag(np.diag(a))
        if float(np.sqrt(np.vdot(strict, strict).real)) <= target:
            return sorted(a.real.diagonal().tolist())
        for _, _, read, write, clear in round_robin(n):
            apq, app, aqq = a.take(read)
            r = np.abs(apq)
            diff = (aqq - app).real
            zero = r < np.finfo(float).tiny
            big = r * 1e150 < np.abs(diff)
            if hits is not None:
                guards = {"exact_zero": r == 0, "subnormal": zero & (r > 0), "big": big & ~zero}
                hits.update(name for name, fired in guards.items() if fired.any())
            safe_r = r + zero
            theta = diff * ~big / (2.0 * safe_r)
            t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t[theta < 0.0] *= -1.0
            np.divide(r, diff, out=t, where=big)
            t[zero] = 0.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            phase = apq / safe_r + zero
            j = eye.copy()
            j.put(write, np.concatenate((c, -s * phase, s, c * phase)))
            a = j @ a @ j.conj().T
            a.put(clear, 0.0)
    raise NumericError(f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps")


JACOBI_TOLS = (1e-14, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2)


def test_jacobi_matches_eigvalsh_at_every_guard():
    """Matrices with exact-zero and subnormal pairs and a far-split diagonal
    pair, whose theta would overflow: the Jacobi route fires every guard
    and stays within tol * ||H||_F of eigvalsh."""
    rng = np.random.default_rng(7)
    hits = collections.Counter()
    for n in (3, 4, 5, 6, 9):
        for _ in range(8):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = x + x.conj().T
            h[rng.random((n, n)) < 0.3] = 0.0  # exact zero pairs
            tiny = rng.random((n, n)) < 0.3
            h[tiny] = 1e-310 * (rng.standard_normal(tiny.sum()) + 1j * rng.standard_normal(tiny.sum()))
            # a far-split diagonal pair with a small coupling: |a_qq - a_pp| > 1e150 |a_pq|
            h[0, 0], h[1, 1], h[0, 1] = 1e150, -1e150, 1e-10 - 3e-11j
            h[n - 2, n - 1] = 1e149  # keeps the off-diagonal norm above tol * ||H||
            h = np.triu(h) + np.triu(h, 1).conj().T
            np.fill_diagonal(h, h.diagonal().real)
            want = np.linalg.eigvalsh(h)
            for tol in (1e-14, 1e-9, 1e-4):
                got = vectorized_jacobi(h, tol, hits)
                assert np.abs(np.array(got) - want).max() <= tol * np.linalg.norm(h), (n, tol)
    assert hits["exact_zero"] and hits["subnormal"] and hits["big"], hits


def assert_within_tol_of_eigvalsh_and_jacobi(g, tol):
    """spectrum(g, tol) is ascending and within tol * ||H||_F of eigvalsh,
    and within twice that of the Jacobi iteration."""
    h = gs.hermitian_matrix(g)
    bound = tol * np.linalg.norm(h)
    got = np.array(gs.spectrum(g, tol).eigenvalues)
    assert list(got) == sorted(got) and len(got) == g.graph.n
    assert np.abs(got - oracle_spectrum(g)).max(initial=0.0) <= bound
    assert np.abs(got - vectorized_jacobi(h, tol)).max(initial=0.0) <= 2 * bound
    return got


def test_householder_ql_matches_eigvalsh_and_jacobi_on_graphs():
    rng = random.Random(2026)
    for n in (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 24, 25, 47, 48):
        for k in range(1, 9):
            graph = random_connected_graph(rng, n_lo=n, n_hi=n, m_cap=2 * n) if n else gs.SimpleGraph(0, [])
            g = random_gains(rng, graph, k=k)
            for tol in JACOBI_TOLS if n <= 17 else JACOBI_TOLS[k % 6 : k % 6 + 1]:
                assert_within_tol_of_eigvalsh_and_jacobi(g, tol)


def test_householder_ql_matches_eigvalsh_and_jacobi_on_scattered_graphs():
    rng = random.Random(2027)
    for n in (20, 21, 27, 32, 33, 47, 48):
        for k in range(1, 9):
            g = random_gains(rng, _scattered_graph(rng, n), k=k)
            for tol in (JACOBI_TOLS[k % 6], 1e-14):
                assert_within_tol_of_eigvalsh_and_jacobi(g, tol)


def handoff_graphs(rng, n):
    """Seeded n-vertex graphs for the reduction's hand-off to Python lists:
    random ones, and a star, a perfect matching and a graph whose last
    vertices are isolated, whose columns reduce to zero."""
    yield random_connected_graph(rng, n_lo=n, n_hi=n, m_cap=2 * n) if n else gs.SimpleGraph(0, [])
    yield gs.SimpleGraph(n, [(1, v) for v in range(2, n + 1)])
    yield gs.SimpleGraph(n, [(v, v + 1) for v in range(1, n, 2)])
    if n > 3:
        core = random_connected_graph(rng, n_lo=n // 2, n_hi=n // 2, m_cap=n)
        yield gs.SimpleGraph(n, core.edges)


def test_householder_handoff_matches_eigvalsh_and_jacobi():
    """Both phases of the reduction (numpy above ``_PY_TAIL`` rows, Python
    lists below) keep every eigenvalue within tol * ||H||_F of eigvalsh and
    of the Jacobi iteration, zero columns included."""
    rng = random.Random(2028)
    tail = gs.spectral._PY_TAIL
    zero_columns = collections.Counter()
    for n in [*range(tail + 5), 24, 48]:
        for k in range(1, 9):
            for graph in handoff_graphs(rng, n):
                g = random_gains(rng, graph, k=k)
                h = gs.hermitian_matrix(g)
                _, e = gs.spectral._tridiagonal(h)
                for step, x in enumerate(e[: n - 2]):  # e[step] is the norm of column step below the diagonal
                    zero_columns["numpy" if step < n - tail else "python"] += x == 0.0
                for tol in (1e-12, 1e-9, 1e-6) if n <= tail + 4 else (1e-9,):
                    bound = tol * np.linalg.norm(h)
                    got = np.array(gs.spectrum(g, tol).eigenvalues)
                    assert len(got) == n and list(got) == sorted(got)
                    assert np.abs(got - oracle_spectrum(g)).max(initial=0.0) <= bound, (n, k, tol)
                    assert np.abs(got - vectorized_jacobi(h, tol)).max(initial=0.0) <= bound, (n, k, tol)
    assert zero_columns["numpy"] and zero_columns["python"], zero_columns


def test_spectrum_of_repeated_eigenvalues():
    # all-ones K_n: n - 1 once and -1 n - 1 times
    for n in (2, 3, 5, 8, 13, 21):
        g = all_ones(complete_graph(n))
        for tol in JACOBI_TOLS:
            got = assert_within_tol_of_eigvalsh_and_jacobi(g, tol)
            assert np.abs(got - ([-1.0] * (n - 1) + [n - 1.0])).max() <= tol * np.linalg.norm(gs.hermitian_matrix(g))
    # cycles: 2 cos(2 pi j / n), every value but +-2 twice; the arc cycle shifts j by 1/4
    for n in (4, 5, 8, 9, 16, 31):
        for g, shift in ((all_ones(cycle_graph(n)), 0.0), (mixed(n, [(v, v % n + 1, 1 if v == 1 else 0) for v in range(1, n + 1)]), 0.25)):
            want = sorted(2 * math.cos(2 * math.pi * (j + shift) / n) for j in range(n))
            for tol in JACOBI_TOLS:
                got = assert_within_tol_of_eigvalsh_and_jacobi(g, tol)
                assert np.abs(got - want).max() <= tol * math.sqrt(2 * n)
    # Cartesian products: every sum of a factor eigenvalue of each, so many repeats
    factors = (all_ones(cycle_graph(4)), all_ones(complete_graph(3)), arc_triangle(), bowtie_i(), all_ones(path_graph(3)))
    for a, b in itertools.combinations_with_replacement(factors, 2):
        g = gs.cartesian_product(a, b)
        want = np.sort(np.add.outer(oracle_spectrum(a), oracle_spectrum(b)).ravel())
        for tol in JACOBI_TOLS:
            got = assert_within_tol_of_eigvalsh_and_jacobi(g, tol)
            assert np.abs(got - want).max() <= tol * np.linalg.norm(gs.hermitian_matrix(g)) + 1e-13


def test_spectrum_of_edgeless_graphs():
    for n in (0, 1, 2, 7):
        for k in (1, 2, 4, 6):
            g = all_ones(gs.SimpleGraph(n, []), k=k, mixed_mode=False)
            for tol in (1e-300, 1e-9, 1.0):
                assert gs.spectrum(g, tol).eigenvalues == (0.0,) * n


def test_spectrum_never_raises_at_extreme_tols():
    """At the smallest tols QL splits on the eps floor alone; at the largest
    it splits every entry at once.  Neither raises, and both keep the bound."""
    rng = random.Random(300)
    for i in range(300):
        n = rng.randint(12, 30)
        graph = random_connected_graph(rng, n_lo=n, n_hi=n, m_cap=2 * n) if i % 3 else _scattered_graph(rng, n)
        g = random_gains(rng, graph, k=rng.randint(1, 8))
        norm = np.linalg.norm(gs.hermitian_matrix(g))
        got = np.array(gs.spectrum(g, 1e-300).eigenvalues)
        assert np.abs(got - oracle_spectrum(g)).max() <= 1e-13 * norm
    g = bowtie_i()
    for tol in (5e-324, 1e-300, 1e300, 1.7e308):
        got = np.array(gs.spectrum(g, tol).eigenvalues)
        assert list(got) == sorted(got)
        assert np.abs(got - oracle_spectrum(g)).max() <= max(1e-13, tol * math.sqrt(2 * g.graph.m))


def test_ql_splits_at_the_bound():
    """An off-diagonal entry at most the split is dropped and one above it is
    not; on one edge the dropped entry is the whole error, which stays within
    tol * ||H||_F on both sides of the split."""
    assert gs.spectral._ql_eigenvalues([0.0, 0.0], [0.5], 0.5) == [0.0, 0.0]
    assert gs.spectral._ql_eigenvalues([0.0, 0.0], [0.5], 0.49) == pytest.approx([-0.5, 0.5], abs=1e-15)
    edge = all_ones(path_graph(2))  # ||H||_F = sqrt(2); the split falls at tol 1 / sqrt(2)
    for tol in (0.05, 0.1, 0.5, 0.7, 0.71, 0.75, 1.0):
        got = gs.spectrum(edge, tol).eigenvalues
        assert max(abs(x - y) for x, y in zip(got, (-1.0, 1.0))) <= tol * math.sqrt(2)
    assert gs.spectrum(edge, 0.71).eigenvalues == (0.0, 0.0)


def test_ql_step_cap_raises(monkeypatch):
    monkeypatch.setattr(gs.spectral, "QL_MAX_ITERATIONS", 0)
    gs.spectral._spectrum_cached.cache_clear()
    with pytest.raises(NumericError, match="QL iteration did not converge in 0 steps"):
        gs.spectrum(arc_triangle())
    assert gs.spectrum(all_ones(gs.SimpleGraph(3, []))).eigenvalues == (0.0,) * 3  # nothing to iterate


def test_spectrum_past_the_old_order_cap():
    """A 2 x 100 mixed ladder (n 200), past the 96 vertices the Jacobi route took."""
    rng = random.Random(200)
    rails = [(i, i + 1) for i in (*range(1, 100), *range(101, 200))]
    ladder = gs.SimpleGraph(200, rails + [(i, 100 + i) for i in range(1, 101)])
    g = random_gains(rng, ladder, k=4, mixed_mode=True)
    for tol in (1e-12, 1e-9):
        got = np.array(gs.spectrum(g, tol).eigenvalues)
        assert list(got) == sorted(got)
        assert np.abs(got - oracle_spectrum(g)).max() <= tol * np.linalg.norm(gs.hermitian_matrix(g))


def test_spectrum_loose_tol_never_raises(rng):
    # a loose tol only widens the error bound tol * ||H||_F; it is a valid
    # setting and must not turn into a numeric failure
    for _ in range(12):
        graph = random_connected_graph(rng, n_lo=5, n_hi=22, m_cap=40)
        g = random_gains(rng, graph, k=rng.choice([3, 4, 6]))
        h = gs.hermitian_matrix(g)
        want = oracle_spectrum(g)
        for tol in (1e-4, 1e-2):
            got = np.array(gs.spectrum(g, tol).eigenvalues)
            assert np.abs(got - want).max() <= tol * np.linalg.norm(h)


def test_spectrum_order_cap_is_read_on_a_cache_miss_before_the_matrix(monkeypatch):
    """Past ``SPECTRUM_MAX_ORDER`` vertices spectrum refuses before building H;
    a cache hit does not read the cap again."""
    cap = gs.spectral.SPECTRUM_MAX_ORDER
    assert cap >= 200  # the largest graphs the tests take a spectrum of
    checks, built = [], []
    check, matrix = gs.spectral._check_cap, gs.spectral.hermitian_matrix
    monkeypatch.setattr(gs.spectral, "_check_cap", lambda *args: checks.append(args) or check(*args))
    monkeypatch.setattr(gs.spectral, "hermitian_matrix", lambda g: built.append(g) or matrix(g))
    gs.spectral._spectrum_cached.cache_clear()
    with pytest.raises(InstanceTooLargeError, match=f"Hermitian spectrum capped at {cap} vertices, graph has {cap + 1}"):
        gs.spectrum(all_ones(path_graph(cap + 1)))
    assert built == [] and len(checks) == 1
    g = arc_triangle()
    assert gs.spectrum(g) == gs.spectrum(g)
    assert built == [g] and len(checks) == 2


def test_spectrum_tol_validation():
    with pytest.raises(ValidationError):
        gs.spectrum(arc_triangle(), tol=0.0)
    with pytest.raises(ValidationError):
        gs.spectrum(arc_triangle(), tol=-1e-9)
    for tol in (math.inf, math.nan):  # an infinite tol splits QL at once; a NaN one bounds nothing
        with pytest.raises(ValidationError):
            gs.spectrum(arc_triangle(), tol=tol)


def test_spectrum_empty_and_single():
    g = all_ones(gs.SimpleGraph(1, []))
    assert gs.spectrum(g).eigenvalues == (0.0,)


def test_switching_invariance_of_spectrum_and_coefficients(rng):
    for _ in range(30):
        graph = random_connected_graph(rng, n_hi=8)
        g = random_gains(rng, graph, k=4)
        h = gs.apply_switching(g, random_switching(rng, g))
        assert gs.cospectral(g, h, tol=1e-9)
        ca = gs.char_poly_elementary(g).all_coefficients()
        cb = gs.char_poly_elementary(h).all_coefficients()
        assert max(abs(a - b) for a, b in zip(ca, cb)) < 1e-12


def test_cospectral_basics():
    assert gs.cospectral(arc_triangle(), arc_triangle())
    assert gs.cospectral(bowtie_minus(), bowtie_i())
    assert not gs.cospectral(arc_triangle(), all_ones(complete_graph(3)))
    two_isolated = all_ones(gs.SimpleGraph(2, []))
    assert not gs.cospectral(all_ones(path_graph(2)), two_isolated)
    assert not gs.cospectral(arc_triangle(), all_ones(path_graph(2)))  # size mismatch
    for tol in (-1, 0, math.inf, math.nan):  # refused before the orders are compared, as spectrum does
        with pytest.raises(gs.ValidationError, match="tol"):
            gs.cospectral(arc_triangle(), all_ones(path_graph(2)), tol=tol)
        with pytest.raises(gs.ValidationError, match="tol"):
            gs.cospectral(arc_triangle(), arc_triangle(), tol=tol)


def test_bowtie_cospectral_values():
    want = sorted([0.0, 1.0, -1.0, math.sqrt(5), -math.sqrt(5)])
    for g in (bowtie_minus(), bowtie_i()):
        got = gs.spectrum(g).eigenvalues
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9


def test_is_balanced_spectrally(rng):
    assert gs.is_balanced_spectrally(all_ones(complete_graph(4)))
    assert not gs.is_balanced_spectrally(arc_triangle())
    # directed C4 with cycle gain 1 is balanced both ways
    c4 = mixed(4, [(1, 2, 1), (2, 3, 3), (3, 4, 0), (1, 4, 0)])
    assert gs.is_balanced(c4)
    assert gs.is_balanced_spectrally(c4)
    with pytest.raises(ValidationError):
        gs.is_balanced_spectrally(random_gains(rng, cycle_graph(3), k=4, mixed_mode=False))


def test_balance_agreement_small_exhaustive():
    # every mixed orientation of two small graphs, both routes agree
    for graph in (cycle_graph(3), gs.SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])):
        for combo in itertools.product(gs.MIXED_EXPONENTS, repeat=graph.m):
            g = gs.GainGraph(graph, G4, tuple(gs.GainExponent(G4, t) for t in combo), mixed_mode=True)
            assert gs.is_balanced(g) == gs.is_balanced_spectrally(g)


def test_bipartite_spectra_symmetric(rng):
    for _ in range(25):
        graph = random_connected_graph(rng, n_hi=8)
        if gs.bipartition(graph) is None:
            continue
        g = random_gains(rng, graph, k=4)
        s = gs.spectrum(g).eigenvalues
        n = len(s)
        assert max(abs(s[j] + s[n - 1 - j]) for j in range(n)) < 1e-8


def test_symmetric_spectrum_converse_needs_nonzero_sums(rng):
    # nonzero cycle sums at every length + symmetric spectrum => bipartite
    for _ in range(40):
        graph = random_connected_graph(rng, n_hi=7)
        g = random_gains(rng, graph, k=4)
        sums = gs.cycle_real_gain_sums(g)
        if any(abs(v) < 1e-9 for v in sums.values()):
            continue
        s = gs.spectrum(g).eigenvalues
        n = len(s)
        if max(abs(s[j] + s[n - 1 - j]) for j in range(n)) < 1e-8:
            assert gs.bipartition(graph) is not None


def test_arc_triangle_symmetric_but_not_bipartite():
    s = gs.spectrum(arc_triangle()).eigenvalues
    assert max(abs(s[j] + s[2 - j]) for j in range(3)) < 1e-9
    assert gs.bipartition(arc_triangle().graph) is None
    assert gs.cycle_real_gain_sums(arc_triangle()) == {3: 0.0}


def test_cycle_real_gain_sums():
    assert gs.cycle_real_gain_sums(all_ones(cycle_graph(5))) == {5: 1.0}
    assert gs.cycle_real_gain_sums(all_ones(complete_graph(4))) == {3: 4.0, 4: 3.0}


def test_cospectral_iff_profiles_when_dominated(rng):
    # when one real profile dominates the other on every cycle, cospectral
    # holds exactly when the profiles coincide
    checked = 0
    for _ in range(200):
        graph = random_connected_graph(rng, n_hi=6)
        a = random_gains(rng, graph, k=4)
        b = random_gains(rng, graph, k=4)
        cycles = gs.enumerate_cycles(graph)
        ra = [gs.cycle_gain(a, c).value.real for c in cycles]
        rb = [gs.cycle_gain(b, c).value.real for c in cycles]
        if not all(x <= y for x, y in zip(ra, rb)):
            continue
        checked += 1
        assert gs.cospectral(a, b, tol=1e-8) == (ra == rb)
    assert checked >= 20


def test_balanced_cospectral_iff_other_balanced(rng):
    checked = 0
    for _ in range(60):
        graph = random_connected_graph(rng, n_hi=6)
        if graph.m == graph.n - graph.num_components:
            continue
        a = all_ones(graph)
        a = gs.apply_switching(a, random_switching(rng, a))
        b = random_gains(rng, graph, k=4)
        cycles = gs.enumerate_cycles(graph)
        all_one = all(gs.cycle_gain(b, c).value.real == 1.0 for c in cycles)
        assert gs.cospectral(a, b, tol=1e-8) == all_one
        checked += 1
    assert checked >= 20


def test_cartesian_product_kronecker_identity(rng):
    for _ in range(20):
        ga = random_gains(rng, random_connected_graph(rng, n_hi=4), k=4)
        gb = random_gains(rng, random_connected_graph(rng, n_hi=4), k=4)
        prod = gs.cartesian_product(ga, gb)
        ha, hb = gs.hermitian_matrix(ga), gs.hermitian_matrix(gb)
        want = np.kron(np.eye(ga.graph.n), hb) + np.kron(ha, np.eye(gb.graph.n))
        assert np.array_equal(gs.hermitian_matrix(prod), want)


def test_cartesian_product_examples():
    k2 = all_ones(path_graph(2))
    c4 = gs.cartesian_product(k2, k2)
    assert c4.graph.edges == ((1, 2), (1, 3), (2, 4), (3, 4))
    assert all(x.is_one() for x in c4.gains)
    arc = mixed(2, [(1, 2, 1)])
    p = gs.cartesian_product(k2, arc)
    assert gs.cycle_gain(p, (1, 2, 4, 3)).is_one()
    single = all_ones(gs.SimpleGraph(1, []))
    assert gs.cartesian_product(arc_triangle(), single).gains == arc_triangle().gains
    with pytest.raises(ValidationError):
        gs.cartesian_product(k2, gs.build_gain_graph(2, gs.GainGroup(2), [(1, 2, 0)]))


def test_product_compatibility_with_switching(rng):
    for _ in range(10):
        a1 = random_gains(rng, random_connected_graph(rng, n_hi=4), k=4)
        b1 = random_gains(rng, random_connected_graph(rng, n_hi=4), k=4)
        a2 = gs.apply_switching(a1, random_switching(rng, a1))
        b2 = gs.apply_switching(b1, random_switching(rng, b1))
        p1 = gs.cartesian_product(a1, b1)
        p2 = gs.cartesian_product(a2, b2)
        assert gs.switching_equivalent(p1, p2) is not None


def test_product_mixed_flag():
    assert gs.cartesian_product(arc_triangle(), arc_triangle()).mixed_mode
    plain = gs.GainGraph(path_graph(2), G4, (G4.one,), mixed_mode=False)
    assert not gs.cartesian_product(arc_triangle(), plain).mixed_mode


def test_cartesian_product_cap_is_checked_before_the_build(monkeypatch):
    """A product of more than ``PRODUCT_MAX_SIZE`` vertices, or of more edges,
    refuses before ``build_gain_graph`` is called; one at the cap is built."""
    built = []
    build = gs.spectral.build_gain_graph
    monkeypatch.setattr(gs.spectral, "build_gain_graph", lambda *args, **kw: built.append(args[0]) or build(*args, **kw))
    cap = gs.spectral.PRODUCT_MAX_SIZE
    rails = [(i, i + 1) for i in range(1, 5000) if i != 2500]
    ladder = all_ones(gs.SimpleGraph(5000, rails + [(i, 2500 + i) for i in range(1, 2501)]))  # 2 x 2500
    with pytest.raises(InstanceTooLargeError, match=f"^Cartesian product capped at {cap} vertices, graph has 25000000$"):
        gs.cartesian_product(ladder, ladder)
    k100 = all_ones(complete_graph(100))  # 10000 vertices, 2 * 100 * 4950 edges
    with pytest.raises(InstanceTooLargeError, match=f"^Cartesian product capped at {cap} edges, graph has 990000$"):
        gs.cartesian_product(k100, k100)
    assert built == []
    p3 = all_ones(path_graph(3))  # its square: 9 vertices, 12 edges
    for low, unit, size in ((8, "vertices", 9), (11, "edges", 12)):
        monkeypatch.setattr(gs.spectral, "PRODUCT_MAX_SIZE", low)
        with pytest.raises(InstanceTooLargeError, match=f"capped at {low} {unit}, graph has {size}$"):
            gs.cartesian_product(p3, p3)
    assert built == []
    monkeypatch.setattr(gs.spectral, "PRODUCT_MAX_SIZE", 12)
    assert gs.cartesian_product(p3, p3).graph.m == 12 and built == [9]


def unpruned_coefficients(g, covers_only=False):
    """a_0 .. a_n by the elementary recursion with no pruning of cycle growth:
    every path is grown to its full length, whether or not it can still close.
    Also returns, per order, the sum of the terms' absolute values."""
    n = g.graph.n
    weights = gs.spectral._cycle_weights(g.group)
    k = len(weights)
    out = [{} for _ in range(n + 1)]
    for (u, v), x in zip(g.graph.edges, g.exps):
        out[u][v] = x
        out[v][u] = -x
    avail = [True] * (n + 1)
    totals = [0] * (n + 1)
    magnitudes = [0] * (n + 1)

    def rec(order, start, term):
        v = start
        while v <= n and not avail[v]:
            v += 1
        if v > n or order == n:
            totals[order] += term
            magnitudes[order] += abs(term)
            return
        avail[v] = False
        if not covers_only:
            rec(order, v + 1, term)
        if order + 2 <= n:
            for w in out[v]:
                if avail[w]:
                    avail[w] = False
                    rec(order + 2, v + 1, -term)
                    avail[w] = True
            if order + 3 <= n:
                grow([v], 0, order, v + 1, term)
        avail[v] = True

    def grow(path, t, order, resume, term):
        last = path[-1]
        if len(path) >= 3 and path[1] < last:
            closing = out[last].get(path[0])
            if closing is not None:
                rec(order + len(path), resume, -term * weights[(t + closing) % k])
        if order + len(path) < n:
            for y, x in out[last].items():
                if avail[y]:
                    avail[y] = False
                    path.append(y)
                    grow(path, t + x, order, resume, term)
                    path.pop()
                    avail[y] = True

    rec(0, 1, 1)
    return totals, magnitudes


def test_pruned_cycle_growth_sums_like_the_unpruned_recursion():
    # Pruning drops only paths that can no longer close, and the memo only
    # regroups the same terms: == at the integer orders.  At the float orders
    # 5, 7 and 8 the memo adds them in another order, so each coefficient is
    # within 1e-12 of the sum of its terms' absolute values (at least 1).
    rng = random.Random(1408)
    for k in range(1, 9):
        for _ in range(6):
            graph = random_connected_graph(rng, n_lo=5, n_hi=10, m_cap=20)
            g = random_gains(rng, graph, k=k)
            n = graph.n
            want, magnitudes = unpruned_coefficients(g)
            got = gs.char_poly_elementary(g).all_coefficients()
            covers, cover_magnitudes = unpruned_coefficients(g, covers_only=True)
            det = (-1) ** n * covers[n]
            if k in (1, 2, 3, 4, 6):
                assert got == tuple(float(c) for c in want)
                assert gs.determinant(g) == float(det)
            else:
                for a, b, size in zip(got, want, magnitudes):
                    assert abs(a - b) <= 1e-12 * max(1, size)
                assert abs(gs.determinant(g) - det) <= 1e-12 * max(1, cover_magnitudes[n])


def sparse_graph(rng, n, m):
    """A random spanning tree topped up to exactly m edges at random."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    rest = [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2) if (u, v) not in edges]
    rng.shuffle(rest)
    return gs.SimpleGraph(n, sorted(edges | set(rest[: m - len(edges)])))


def test_coefficients_sum_the_listed_elementary_subgraphs():
    # a_j, recomputed from enumerate_elementary's lists: each subgraph adds
    # (-1)^components times 2 Re of each cycle's gain
    rng = random.Random(3407)
    for k in range(1, 9):
        for _ in range(4):
            g = random_gains(rng, random_connected_graph(rng, n_lo=3, n_hi=8, m_cap=14), k=k)
            want, magnitudes = [], []
            for j in range(g.graph.n + 1):
                terms = []
                for sub in gs.enumerate_elementary(g.graph, j):
                    term = (-1) ** (len(sub.edges) + len(sub.cycles))
                    for cyc in sub.cycles:
                        w = 2 * gs.cycle_gain(g, cyc).value.real
                        term *= round(w) if k in (1, 2, 3, 4, 6) else w
                    terms.append(term)
                want.append(sum(terms))
                magnitudes.append(sum(abs(t) for t in terms))
            got = gs.spectral._coefficients(g, gs.spectral.DEFAULT_ELEMENTARY_CAP)
            if k in (1, 2, 3, 4, 6):
                assert got == tuple(want)
            else:
                assert all(abs(a - b) <= 1e-12 * max(1, size) for a, b, size in zip(got, want, magnitudes))


def test_char_poly_and_determinant_match_sympy_at_the_cap():
    # Sparse graphs of 12-14 vertices (m = 1.6n) at k 2 and 4: every gain is
    # a Gaussian integer, so sympy's charpoly and det over ZZ_I are exact.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(1214)
    units = {2: (1, -1), 4: (1, sympy.I, -1, -sympy.I)}
    for n in (12, 13, 14):
        for k in (2, 4):
            g = random_gains(rng, sparse_graph(rng, n, (8 * n) // 5), k=k)
            m = sympy.zeros(n, n)
            for (u, v), x in zip(g.graph.edges, g.exps):
                m[u - 1, v - 1] = units[k][x]
                m[v - 1, u - 1] = units[k][-x % k]
            dm = DomainMatrix.from_Matrix(m)
            want = [dm.domain.to_sympy(c) for c in dm.charpoly()]
            det = dm.domain.to_sympy(dm.det())
            assert all(c.is_Integer for c in want) and det.is_Integer
            assert gs.char_poly_elementary(g).all_coefficients() == tuple(int(c) for c in want)
            assert gs.determinant(g) == int(det)


def test_edgeless_graph_and_k2_give_the_known_tuples():
    for n in range(4):
        edgeless = gs.GainGraph(gs.SimpleGraph(n, []), G4, ())
        assert gs.spectral._coefficients(edgeless, gs.spectral.DEFAULT_ELEMENTARY_CAP) == (1,) + (0,) * n
        assert gs.char_poly_elementary(edgeless).all_coefficients() == (1.0,) + (0.0,) * n
        assert gs.determinant(edgeless) == (1.0 if n == 0 else 0.0)
        assert gs.enumerate_elementary(edgeless.graph, 0) == [gs.ElementarySubgraph((), ())]
    k2 = all_ones(path_graph(2))
    assert gs.spectral._coefficients(k2, gs.spectral.DEFAULT_ELEMENTARY_CAP) == (1, 0, -1)
    assert gs.enumerate_elementary(k2.graph, 2) == [gs.ElementarySubgraph(((1, 2),), ())]
    assert gs.determinant(k2) == -1.0
