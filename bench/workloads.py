"""The benchmark's five workloads: seeded inputs, operations and checks.

Every input is plain data (edge lists, exponent tuples, ``.gg`` text) drawn
from a ``random.Random`` seeded by the workload seed and the round number,
so one seed always yields the same inputs.  A round is one pass over a
workload's fixed schedule of sizes; a run measures whole rounds, so every
seed and every commit sees the same mix of sizes and only the drawn
structure changes.  The operations hand the library nothing but these
inputs, and call it through module attributes (``spectral.spectrum``) so
that a traced run can put spans around them.

Each operation has a check that runs outside the timed region and uses a
route independent of the call it checks (``numpy.linalg``, plain integer
arithmetic on the generated data, ``networkx``, or another formula of the
package).  A check raises ``Mismatch`` when the two routes disagree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter

import numpy as np

from gainswitch import census, cli, gaincore, spectral, switching

MIXED = (0, 1, 3)
_QUARTER = (1, 1j, -1, -1j)
_K4_TOKENS = ("1", "i", "-1", "-i")


class Mismatch(Exception):
    """An output disagreed with its independent check."""


class ExitMismatch(Mismatch):
    """The CLI exited with another code than its input implies."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# -- plain graph generators ----------------------------------------------------

def random_connected(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Random tree plus random extra edges (acceptance criterion 6's draw), exactly m edges."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    rest = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges]
    rng.shuffle(rest)
    edges.update(rest[: m - (n - 1)])
    return sorted(edges)


def random_sparse(rng: random.Random, n: int, m: int):
    """Random connected sparse graph with shuffled labels; returns (tree edges, all edges)."""
    label = list(range(1, n + 1))
    rng.shuffle(label)
    tree = set()
    for v in range(2, n + 1):
        a, b = label[rng.randint(1, v - 1) - 1], label[v - 1]
        tree.add((min(a, b), max(a, b)))
    edges = set(tree)
    while len(edges) < m:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return tree, sorted(edges)


def relabel(rng: random.Random, n: int, edges, faces=()):
    """Apply a random vertex permutation to edges and faces (cyclic face order kept)."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    new_edges = sorted((min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1])) for u, v in edges)
    new_faces = [[perm[v - 1] for v in face] for face in faces]
    return new_edges, new_faces


def cycle_graph(n: int):
    return n, [(i, i + 1) for i in range(1, n)] + [(1, n)], [list(range(1, n + 1))]


def grid_graph(rows: int, cols: int):
    """rows x cols grid with its inner square faces, all traversed clockwise."""
    def vid(i, j):
        return i * cols + j + 1
    edges = [(vid(i, j), vid(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(vid(i, j), vid(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    faces = [[vid(i, j), vid(i, j + 1), vid(i + 1, j + 1), vid(i + 1, j)]
             for i in range(rows - 1) for j in range(cols - 1)]
    return rows * cols, sorted(edges), faces


def prism_graph(k: int):
    """C_k x K_2: outer cycle 1..k, inner cycle k+1..2k; k quads and the inner k-gon."""
    edges = [(i, i % k + 1) for i in range(1, k + 1)]
    edges += [(k + i, k + i % k + 1) for i in range(1, k + 1)]
    edges += [(i, k + i) for i in range(1, k + 1)]
    faces = [[i, i % k + 1, k + i % k + 1, k + i] for i in range(1, k + 1)]
    faces.append([k + i for i in range(1, k + 1)])
    return 2 * k, sorted((min(e), max(e)) for e in edges), faces


def wheel_graph(k: int):
    """Rim 1..k and hub k+1, with the k triangles as faces."""
    hub = k + 1
    edges = [(i, i % k + 1) for i in range(1, k + 1)] + [(i, hub) for i in range(1, k + 1)]
    faces = [[i, i % k + 1, hub] for i in range(1, k + 1)]
    return k + 1, sorted((min(e), max(e)) for e in edges), faces


def complete_graph(n: int):
    return n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)], []


def random_cactus(rng: random.Random, blocks):
    """A cactus of the given blocks (cycle lengths, 1 for a bridge), each attached at a
    random vertex in random order; returns (n, edges, cycles, bridges)."""
    n, edges, cycles = 1, [], []
    for length in rng.sample(blocks, len(blocks)):
        attach = rng.randint(1, n)
        if length == 1:
            n += 1
            edges.append((attach, n))
            continue
        ring = [attach] + list(range(n + 1, n + length))
        n += length - 1
        edges += [(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])]
        cycles.append(ring)
    return n, sorted(edges), cycles, blocks.count(1)


# -- plain gain arithmetic (the independent routes) ------------------------------

def relabel_gains(perm, gains, k: int) -> dict:
    """Gains moved along the vertex map v -> perm[v - 1], kept in u < v orientation."""
    out = {}
    for (u, v), t in gains.items():
        a, b = perm[u - 1], perm[v - 1]
        out[(min(a, b), max(a, b))] = t if a < b else (-t) % k
    return out


def canonical_gains(k: int, arcs) -> dict[tuple[int, int], int]:
    """Exponent of each edge in its u < v orientation, from (u, v, t) arcs."""
    return {((u, v) if u < v else (v, u)): (t if u < v else -t) % k for u, v, t in arcs}


def walk_exponent(k: int, gains, cycle) -> int:
    closed = list(cycle) + [cycle[0]]
    return sum(gains[(a, b)] if a < b else -gains[(b, a)] for a, b in zip(closed, closed[1:])) % k


def hermitian(n: int, k: int, gains) -> np.ndarray:
    h = np.zeros((n, n), dtype=complex)
    for (u, v), t in gains.items():
        val = _QUARTER[t] if k == 4 else np.exp(2j * np.pi * t / k)
        h[u - 1, v - 1] = val
        h[v - 1, u - 1] = np.conj(val)
    return h


def adjacency_lists(n: int, edges):
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def plain_balanced(n: int, k: int, gains) -> bool:
    """Balanced iff a vertex potential makes every edge gain 0 (BFS on exponents)."""
    adj = adjacency_lists(n, gains)
    pot = [None] * (n + 1)
    for s in range(1, n + 1):
        if pot[s] is not None:
            continue
        pot[s], stack = 0, [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                t = gains[(u, w)] if u < w else -gains[(w, u)]
                if pot[w] is None:
                    pot[w] = (pot[u] + t) % k
                    stack.append(w)
                elif pot[w] != (pot[u] + t) % k:
                    return False
    return True


def switching_class(n: int, gains, k: int = 4) -> tuple[int, ...]:
    """A complete switching invariant: switch so that a spanning tree (the same
    for every gain assignment on these edges) has gain 0, then read the other
    edges' exponents in edge order."""
    adj = adjacency_lists(n, gains)
    pot = [None] * (n + 1)
    tree = set()
    for s in range(1, n + 1):
        if pot[s] is not None:
            continue
        pot[s], stack = 0, [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if pot[w] is None:
                    pot[w] = (pot[u] + (gains[(u, w)] if u < w else -gains[(w, u)])) % k
                    tree.add((min(u, w), max(u, w)))
                    stack.append(w)
    return tuple((t + pot[u] - pot[v]) % k for (u, v), t in gains.items() if (u, v) not in tree)


def plain_bipartite(n: int, edges) -> bool:
    adj = adjacency_lists(n, edges)
    side = [None] * (n + 1)
    for s in range(1, n + 1):
        if side[s] is not None:
            continue
        side[s], stack = 0, [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if side[w] is None:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def word_counts(length: int) -> list[int]:
    """Words of the given length over {1, i, -i}, counted by product exponent mod 4."""
    counts = [1, 0, 0, 0]
    for _ in range(length):
        counts = [sum(counts[(x - t) % 4] for t in MIXED) for x in range(4)]
    return counts


def spectrum_slack(ref: np.ndarray) -> float:
    """Rounding allowance of the numpy reference itself."""
    return 64 * len(ref) * np.finfo(float).eps * max(1.0, float(np.abs(ref).max(initial=0.0)))


def gg_text(n: int, k: int, gains, mixed: bool, faces=()) -> str:
    head = f"gg {k} mixed" if mixed else f"gg {k}"
    lines = [head, f"n {n}"]
    for (u, v), t in sorted(gains.items()):
        lines.append(f"e {u} {v} {_K4_TOKENS[t] if k == 4 else t}")
    lines += ["f " + " ".join(map(str, face)) for face in faces]
    return "\n".join(lines) + "\n"


def switched(rng: random.Random, n: int, k: int, gains) -> dict:
    """The gains after switching by a random vertex function (theta in Z_k)."""
    theta = [0] + [rng.randrange(k) for _ in range(n)]
    return {(u, v): (t - theta[u] + theta[v]) % k for (u, v), t in gains.items()}


def scrambled_arcs(rng: random.Random, k: int, gains) -> list[list[int]]:
    """Arcs in random orientation and order, as build_gain_graph accepts them."""
    arcs = [[u, v, t] if rng.random() < 0.5 else [v, u, (-t) % k] for (u, v), t in gains.items()]
    rng.shuffle(arcs)
    return arcs


def sparse_pair(rng: random.Random, n: int, ratio: float, k: int, equivalent: bool):
    """Gains (a, b) on one random sparse graph: b is a switching of a, or, when
    not equivalent, a switching with one chord of the generating tree changed."""
    tree, edges = random_sparse(rng, n, int(n * ratio))
    pool = MIXED if k == 4 else range(k)
    ga = {e: rng.choice(pool) for e in edges}
    gb = switched(rng, n, k, ga)
    if not equivalent:
        chord = rng.choice([e for e in edges if e not in tree])
        gb[chord] = (gb[chord] + rng.randrange(1, k)) % k
    return ga, gb


# -- workloads -----------------------------------------------------------------

class Workload:
    """A schedule of strata; one round draws one instance per stratum.

    Strata on which the package fails by a known defect are left out of the
    schedule and drawn into ``probe_schedule`` instead: the probe is drawn
    from one fixed stream whatever the seed, and runs once per timed phase,
    so every run makes the same failing operations however many rounds fit.
    """

    name = ""
    schedule: tuple = ()
    warm_schedule: tuple = ()
    probe_schedule: tuple = ()
    known_defects: frozenset = frozenset()  # (op kind, exception type name)

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def make_round(self, seed, r: int) -> list[dict]:
        rng = random.Random(f"{seed}:{self.name}:{r}")
        return [self.make(rng, stratum, f"r{r}i{i}") for i, stratum in enumerate(self.schedule)]

    def warm_round(self, seed) -> list[dict]:
        """Small instances drawn from a stream the measured rounds never use."""
        rng = random.Random(f"{seed}:{self.name}:warm")
        return [self.make(rng, stratum, f"w{i}") for i, stratum in enumerate(self.warm_schedule)]

    def probe_round(self) -> list[dict]:
        """The known-defect instances, the same for every seed."""
        rng = random.Random(f"probe:{self.name}")
        return [self.make(rng, stratum, f"p{i}") for i, stratum in enumerate(self.probe_schedule)]

    def make(self, rng, stratum, tag) -> dict:
        raise NotImplementedError

    def op(self, inst: dict):
        raise NotImplementedError

    def check(self, inst: dict, result) -> None:
        raise NotImplementedError


class SweepSmall(Workload):
    """Every mixed orientation of small connected graphs, the traffic of criterion 6.

    Each slot of the schedule owns one graph of its (n, m) and sweeps its
    3^m orientations in consecutive rounds, in a seeded order; a round takes
    the next orientation of every slot, and a slot moves to a fresh graph
    when its sweep is complete.  With six slots a 16 s run completes the
    sweeps of both m = 5 slots at least once; the m 6-8 sweeps stay partial,
    and every operation's profile is checked against a switching invariant.
    n = 3 is absent because it admits no m >= 5.
    """

    name = "sweep_small"
    schedule = ((4, 5), (5, 5), (4, 6), (6, 6), (5, 7), (6, 8))
    warm_schedule = ((3, 3), (4, 4))

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        self._graphs: dict = {}
        self._records: dict = {}
        self.sweeps_completed = 0
        self.g4 = gaincore.GainGroup(4)

    def _graph(self, seed, slot: int, n: int, m: int, j: int):
        key = (seed, slot, j)
        if key not in self._graphs:
            rng = random.Random(f"{seed}:{self.name}:{slot}:{j}")
            edges = random_connected(rng, n, m)
            size = 3 ** m
            step = rng.randrange(1, size)
            while step % 3 == 0:
                step = rng.randrange(1, size)
            self._graphs[key] = (edges, step, rng.randrange(size))
        return self._graphs[key]

    def _round(self, seed, r: int, schedule) -> list[dict]:
        out = []
        for slot, (n, m) in enumerate(schedule):
            j, i = divmod(r, 3 ** m)
            edges, step, offset = self._graph(seed, slot, n, m, j)
            idx = (step * i + offset) % 3 ** m
            exps = [MIXED[(idx // 3 ** e) % 3] for e in range(m)]
            out.append({"kind": "orientation", "graph": [str(seed), slot, j], "n": n,
                        "edges": edges, "exps": exps})
        return out

    def make_round(self, seed, r: int) -> list[dict]:
        return self._round(seed, r, self.schedule)

    def warm_round(self, seed) -> list[dict]:
        return self._round(f"{seed}:warm", 0, self.warm_schedule)

    def op(self, inst):
        arcs = [(u, v, t) for (u, v), t in zip(inst["edges"], inst["exps"])]
        g = gaincore.build_gain_graph(inst["n"], self.g4, arcs, mixed_mode=True)
        return (switching.is_balanced(g), switching.gain_character(g),
                spectral.is_balanced_spectrally(g, tol=1e-8), census.mixed_basis_profile(g))

    def check(self, inst, result) -> None:
        balanced, character, spectral_balance, profile = result
        n, edges = inst["n"], inst["edges"]
        gains = dict(zip(map(tuple, edges), inst["exps"]))
        expect(len(profile) == len(edges) - n + 1 and all(0 <= p < 4 for p in profile),
               "basis profile has the wrong shape")
        expect(balanced == all(p == 0 for p in profile), "is_balanced vs basis profile")
        expect(balanced == plain_balanced(n, 4, gains), "is_balanced vs vertex potential")
        expect(spectral_balance == balanced, "is_balanced_spectrally vs is_balanced")
        expect((character == "balanced") == balanced, "gain_character vs is_balanced")
        h = hermitian(n, 4, gains)
        cospectral = np.allclose(np.linalg.eigvalsh(h), np.linalg.eigvalsh(np.abs(h)), atol=1e-8)
        expect(cospectral == balanced, "eigvalsh cospectrality vs is_balanced")
        self._check_profile(inst, tuple(profile), switching_class(n, gains))

    def _check_profile(self, inst, profile, cls) -> None:
        """Profiles and switching classes match one to one; a finished sweep's
        profile tallies equal the census of its graph."""
        key = tuple(inst["graph"])
        if key not in self._records:
            graph = gaincore.SimpleGraph(inst["n"], [tuple(e) for e in inst["edges"]])
            self._records[key] = (dict(census.brute_force_census(graph).classes), Counter(), {}, {})
        sizes, tally, profile_of, class_of = self._records[key]
        expect(profile_of.setdefault(cls, profile) == profile,
               "switching-equivalent orientations have different profiles")
        expect(class_of.setdefault(profile, cls) == cls, "inequivalent orientations share a profile")
        tally[profile] += 1
        expect(tally[profile] <= sizes.get(profile, 0), "profile tally exceeds its census class")
        if sum(tally.values()) == 3 ** len(inst["edges"]):
            expect(dict(tally) == sizes, "completed sweep differs from the census")
            del self._records[key]
            self.sweeps_completed += 1


SPECTRA_TOLS = (1e-12, 1e-9, 1e-6, 1e-4)
SPECTRA_GROUPS = (2, 3, 4, 6)
SPECTRA_GRAPHS = tuple(
    ("graph", n, SPECTRA_TOLS[i % 4], SPECTRA_GROUPS[(i + i // 4) % 4])
    for i, n in enumerate((8, 14, 9, 20, 10, 16, 11, 24, 8, 12, 10, 18, 9, 13, 10, 22))
)
SPECTRA_DEFECT = tuple(s for s in SPECTRA_GRAPHS if s[2] == 1e-4 and s[3] != 2)


class SpectraMid(Workload):
    """Spectra of mid-size gain graphs and of Cartesian products.

    Stratum i of the graph part pairs tol index i % 4 with group index
    (i + i // 4) % 4, so each (tol, k) pair appears once per round and every
    tol meets small and large n.  At tol 1e-4 the pairing of doubled
    eigenvalues raises NumericError on about one graph in eight of n 18-22
    with k 3, 4 or 6 (a known defect); those three strata run in the probe,
    five draws each, and the rounds run them at tol 1e-6.
    """

    name = "spectra_mid"
    CHARPOLY_MAX_N = 10
    schedule = tuple(s[:2] + (1e-6, s[3]) if s in SPECTRA_DEFECT else s for s in SPECTRA_GRAPHS) + tuple(
        ("product", na, nb, SPECTRA_TOLS[i % 4], SPECTRA_GROUPS[(i + 1) % 4])
        for i, (na, nb) in enumerate(((3, 4), (4, 4), (3, 5), (4, 5)))
    )
    warm_schedule = (("graph", 6, 1e-9, 4), ("product", 3, 3, 1e-9, 3))
    probe_schedule = SPECTRA_DEFECT * 5
    known_defects = frozenset({("graph", "NumericError"), ("product", "NumericError")})

    @staticmethod
    def _gain_graph(rng, n: int, k: int) -> dict:
        m = min(n * (n - 1) // 2, (8 * n) // 5)
        edges = random_connected(rng, n, m)
        return {"n": n, "arcs": scrambled_arcs(rng, k, {e: rng.randrange(k) for e in edges})}

    def make(self, rng, stratum, tag):
        if stratum[0] == "graph":
            _, n, tol, k = stratum
            return {"kind": "graph", "k": k, "tol": tol, **self._gain_graph(rng, n, k)}
        _, na, nb, tol, k = stratum
        return {"kind": "product", "k": k, "tol": tol,
                "a": self._gain_graph(rng, na, k), "b": self._gain_graph(rng, nb, k)}

    def op(self, inst):
        group = gaincore.GainGroup(inst["k"])
        if inst["kind"] == "product":
            a = gaincore.build_gain_graph(inst["a"]["n"], group, inst["a"]["arcs"])
            b = gaincore.build_gain_graph(inst["b"]["n"], group, inst["b"]["arcs"])
            return spectral.spectrum(spectral.cartesian_product(a, b), inst["tol"])
        g = gaincore.build_gain_graph(inst["n"], group, inst["arcs"])
        spec = spectral.spectrum(g, inst["tol"])
        if inst["n"] > self.CHARPOLY_MAX_N:
            return spec, None, None
        return spec, spectral.char_poly_elementary(g), spectral.determinant(g)

    def check(self, inst, result) -> None:
        k, tol = inst["k"], inst["tol"]
        if inst["kind"] == "product":
            fa = np.linalg.eigvalsh(hermitian(inst["a"]["n"], k, canonical_gains(k, inst["a"]["arcs"])))
            fb = np.linalg.eigvalsh(hermitian(inst["b"]["n"], k, canonical_gains(k, inst["b"]["arcs"])))
            ref = np.sort(np.add.outer(fa, fb).ravel())
            got = np.array(result.eigenvalues)
            expect(got.shape == ref.shape, "product spectrum has the wrong length")
            expect(np.all(np.abs(got - ref) <= tol + spectrum_slack(ref)),
                   "product spectrum vs pairwise sums of factor spectra")
            return
        spec, poly, det = result
        ref = np.linalg.eigvalsh(hermitian(inst["n"], k, canonical_gains(k, inst["arcs"])))
        got = np.array(spec.eigenvalues)
        expect(got.shape == ref.shape, "spectrum has the wrong length")
        expect(np.all(np.abs(got - ref) <= tol + spectrum_slack(ref)), "spectrum vs eigvalsh")
        if poly is None:
            return
        coeffs = np.array(poly.all_coefficients())
        scale = max(1.0, float(np.abs(coeffs).sum()))
        expect(np.all(np.abs(coeffs - np.poly(ref)) <= 1e-6 * scale), "char poly vs np.poly(eigvalsh)")
        expect(all(abs(poly.evaluate(lam)) <= 1e-6 * scale for lam in ref),
               "char poly does not vanish at the eigenvalues")
        prod = float(np.prod(ref))
        expect(abs(det - prod) <= 1e-6 * max(1.0, float(np.prod(np.maximum(1.0, np.abs(ref))))),
               "determinant vs product of eigenvalues")


class CensusMid(Workload):
    """The census report's library calls on graphs whose 3^m scan dominates."""

    name = "census_mid"
    schedule = (
        ("random", 5, 8), ("random", 6, 9), ("random", 6, 10), ("random", 7, 11), ("random", 7, 12),
        ("cactus", (3, 3, 1, 1, 1)), ("cactus", (3, 4, 1, 1, 1, 1)), ("cactus", (3, 4, 5, 1)),
        ("ladder", 4), ("grid", 3, 3), ("prism", 3), ("prism", 4), ("wheel", 4), ("wheel", 5),
        ("cycle", 8), ("cycle", 10), ("cycle", 12),
    )
    warm_schedule = (("random", 4, 5), ("cactus", (3, 1, 1)), ("wheel", 3), ("cycle", 5))

    def make(self, rng, stratum, tag):
        family = stratum[0]
        faces, extra = [], {}
        if family == "random":
            n, edges = stratum[1], random_connected(rng, stratum[1], stratum[2])
        elif family == "cactus":
            n, edges, cycles, bridges = random_cactus(rng, stratum[1])
            extra = {"cycles": cycles, "bridges": bridges}
        else:
            build = {"ladder": lambda k: grid_graph(2, k), "grid": grid_graph, "prism": prism_graph,
                     "wheel": wheel_graph, "cycle": cycle_graph}[family]
            n, edges, faces = build(*stratum[1:])
            edges, faces = relabel(rng, n, edges, faces)
            if family == "cycle":
                extra = {"cycles": faces}
        orients = [[rng.choice(MIXED) for _ in edges] for _ in range(3)]
        return {"kind": family, "n": n, "edges": [list(e) for e in edges], "faces": faces,
                "orients": orients, **extra}

    def op(self, inst):
        g4 = gaincore.GainGroup(4)
        graphs = [gaincore.build_gain_graph(inst["n"], g4, [(u, v, t) for (u, v), t in zip(inst["edges"], o)],
                                            mixed_mode=True) for o in inst["orients"]]
        graph = graphs[0].graph
        bounds = census.class_count_bounds(graph)
        cen = census.brute_force_census(graph)
        sizes = [cen.size_of(census.mixed_basis_profile(g)) for g in graphs]
        by_blocks = census.class_size_by_blocks(graphs[0])
        plane = None
        if inst["faces"]:
            fs = census.parse_face_structure(graphs[0], inst["faces"])
            plane = (census.plane_class_count(graph, fs), census.plane_class_size(graphs[0], fs))
        return bounds, cen, sizes, by_blocks, plane

    def check(self, inst, result) -> None:
        (lower, upper, tight), cen, sizes, by_blocks, plane = result
        n, m = inst["n"], len(inst["edges"])
        r = m - n + 1
        expect(cen.total == 3 ** m and sum(s for _, s in cen.classes) == 3 ** m, "census sizes sum to 3^m")
        expect((lower, upper) == (3 ** r, 4 ** r), "class count bounds vs cycle rank")
        expect(lower <= cen.num_classes <= upper and (not tight or cen.num_classes == upper),
               "class count outside its bounds")
        expect(by_blocks == sizes[0], "block product vs census")
        if plane is not None:
            expect(plane == (cen.num_classes, sizes[0]), "plane formulas vs census")
        if "cycles" in inst:  # cacti and cycles: sizes from word counts over the known blocks
            gains = [dict(zip(map(tuple, inst["edges"]), o)) for o in inst["orients"]]
            for size, g in zip(sizes, gains):
                want = 3 ** inst.get("bridges", 0)
                for ring in inst["cycles"]:
                    want *= word_counts(len(ring))[walk_exponent(4, g, ring)]
                expect(size == want, "class size vs alpha word counts")
            if inst["kind"] == "cycle":
                alpha = census.alpha_vector(n).as_tuple()
                expect(alpha == census.alpha_closed_form(n).as_tuple(), "alpha recurrence vs closed form")
                expect(sorted(s for _, s in cen.classes) == sorted(alpha), "cycle census vs alpha")


DECIDE_PAIRS = 25
DECIDE_STRUCTURE_MAX = 12  # structure ops in the rounds for pairs 0-12 (n <= 1414)


class DecideLarge(Workload):
    """Equivalence decisions and structure queries on large sparse pairs.

    Pair i of a round has n = 500 * 8^(i / 24) and edge ratio m/n =
    1.2 * (2.5 / 1.2)^(i / 24): geometric ladders, so that m, which sets the
    cost, grows by 12% a step and the latency percentiles fall between close
    neighbours.  The group is k = 4 mixed or k = 6 alternately, and pairs are
    equivalent (random switching) or not (one chord of the generating tree
    changed) in a 2-on, 2-off pattern.  Every pair makes a decision op; the
    structure op raises RecursionError in ``block_decompose`` once the DFS
    tree is deep (a known defect: 0 of 30 graphs at pair 13, n 1542, 6 of 30
    at pair 14, all from pair 15, n 1834), so the rounds make it for pairs
    0-12 only and the probe makes it on one graph each of pairs 15, 18, 21
    and 24.
    """

    name = "decide_large"
    schedule = tuple(
        (round(500 * 8 ** (i / (DECIDE_PAIRS - 1))), 1.2 * (2.5 / 1.2) ** (i / (DECIDE_PAIRS - 1)),
         (4, 6)[i % 2], i % 4 < 2, ("decision", "structure") if i <= DECIDE_STRUCTURE_MAX else ("decision",))
        for i in range(DECIDE_PAIRS)
    )
    warm_schedule = ((120, 1.5, 4, True, ("decision", "structure")), (120, 1.5, 6, False, ("decision", "structure")))
    probe_schedule = tuple(pair[:4] + (("structure",),) for pair in schedule[15::3])
    known_defects = frozenset({("structure", "RecursionError")})

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        import networkx  # the block-structure oracle of the checks; only this workload needs it

        self.nx = networkx

    def make_round(self, seed, r: int) -> list[dict]:
        return [inst for pair in super().make_round(seed, r) for inst in pair]

    def warm_round(self, seed) -> list[dict]:
        return [inst for pair in super().warm_round(seed) for inst in pair]

    def probe_round(self) -> list[dict]:
        return [inst for pair in super().probe_round() for inst in pair]

    def make(self, rng, stratum, tag):
        n, ratio, k, equivalent, kinds = stratum
        ga, gb = sparse_pair(rng, n, ratio, k, equivalent)
        pair = {"n": n, "k": k, "mixed": k == 4, "equivalent": equivalent,
                "b_mixed": k == 4 and all(t in MIXED for t in gb.values()),
                "a": scrambled_arcs(rng, k, ga), "b": scrambled_arcs(rng, k, gb)}
        return [{"kind": kind, **pair} for kind in kinds]

    def op(self, inst):
        group = gaincore.GainGroup(inst["k"])
        n, mixed = inst["n"], inst["mixed"]
        if inst["kind"] == "structure":
            graph = gaincore.build_gain_graph(n, group, inst["a"], mixed_mode=mixed).graph
            return census.class_count_bounds(graph), census.is_cactus(graph)
        a = gaincore.build_gain_graph(n, group, inst["a"], mixed_mode=mixed)
        b = gaincore.build_gain_graph(n, group, inst["b"], mixed_mode=inst["b_mixed"])
        a2, _ = gaincore.parse_gg(gaincore.format_gg(a))
        witness = switching.switching_equivalent(a2, b)
        diff = None if witness else switching.first_profile_difference(a2, b)
        return a, a2, b, witness, diff, switching.is_balanced(a2), switching.equivalent_to_negation(a2)

    def check(self, inst, result) -> None:
        n, k = inst["n"], inst["k"]
        ga = canonical_gains(k, inst["a"])
        if inst["kind"] == "structure":
            (lower, upper, _), cactus = result
            r = len(ga) - n + 1
            expect((lower, upper) == (3 ** r, 4 ** r), "class count bounds vs cycle rank")
            blocks = self.nx.biconnected_component_edges(self.nx.Graph(list(ga)))
            nx_cactus = all(len(b) == 1 or len(b) == len({v for e in b for v in e}) for b in blocks)
            expect(cactus == nx_cactus, "is_cactus vs networkx blocks")
            return
        a, a2, b, witness, diff, balanced, negation = result
        expect(a2 == a, "format_gg/parse_gg round trip")
        expect(bool(witness) == inst["equivalent"], "equivalence verdict vs construction")
        if witness:
            expect(switching.apply_switching(a, witness) == b, "witness does not switch a to b")
        else:
            gb = canonical_gains(k, inst["b"])
            cycle, gain_a, gain_b = diff
            expect(gain_a != gain_b, "first difference has equal gains")
            expect((walk_exponent(k, ga, cycle), walk_exponent(k, gb, cycle)) == (gain_a.exp, gain_b.exp),
                   "first difference gains vs plain cycle walk")
        expect(balanced == plain_balanced(n, k, ga), "is_balanced vs vertex potential")
        expect(negation == plain_bipartite(n, list(ga)), "equivalent_to_negation vs bipartiteness")


class CliReports(Workload):
    """In-process ``gainswitch`` runs over all seven subcommands, one fresh file per run."""

    name = "cli_reports"
    SYMMETRIC = {  # family -> (builder, order of the underlying automorphism group)
        "K5": (lambda: complete_graph(5), 120), "K6": (lambda: complete_graph(6), 720),
        "K7": (lambda: complete_graph(7), 5040), "C8": (lambda: cycle_graph(8), 16),
        "C10": (lambda: cycle_graph(10), 20), "prism3": (lambda: prism_graph(3), 12),
        "prism5": (lambda: prism_graph(5), 20), "cube": (lambda: prism_graph(4), 48),
        "wheel6": (lambda: wheel_graph(6), 12), "wheel9": (lambda: wheel_graph(9), 18),
    }
    schedule = (
        ("equiv", 1000, 4, True), ("equiv", 1000, 6, False),
        ("spectrum", 8), ("spectrum", 12), ("classify", 8), ("classify", 12),
        ("census", "ladder4", False), ("census", "wheel5", True), ("census", "prism3", True),
        ("iso", "K6", True), ("iso", "cube", False), ("iso", "wheel9", True), ("iso", "C10", False),
        ("product", 3, 4), ("product", 4, 5),
        ("aut", "K5"), ("aut", "K6"), ("aut", "C8"), ("aut", "prism5"),
        ("aut", "cube"), ("aut", "wheel6"), ("aut", "prism3"),
        # K7, the dearest run, three times: an eighth of the round, so the
        # p90 latency falls inside this group rather than between groups.
        ("aut", "K7"), ("aut", "K7"), ("aut", "K7"),
    )
    warm_schedule = (("equiv", 60, 4, True), ("spectrum", 5), ("classify", 5), ("census", "wheel4", True),
                     ("iso", "C8", True), ("product", 3, 3), ("aut", "C8"))
    FAMILIES = {"ladder4": lambda: grid_graph(2, 4), "wheel4": lambda: wheel_graph(4),
                "wheel5": lambda: wheel_graph(5), "prism3": lambda: prism_graph(3)}

    @staticmethod
    def _pattern(edges) -> dict:
        """A fixed orientation of a symmetric graph, so that the automorphism
        searches on it cost the same whatever the seed; only labels are drawn."""
        return {(u, v): MIXED[(u * v) % 3] for u, v in edges}

    def _write(self, name: str, text: str) -> str:
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name

    def make(self, rng, stratum, tag):
        cmd = stratum[0]
        inst = {"kind": cmd, "expect_code": 0}
        if cmd == "equiv":
            _, n, k, equivalent = stratum
            ga, gb = sparse_pair(rng, n, 1.5, k, equivalent)
            b_mixed = k == 4 and all(t in MIXED for t in gb.values())
            inst.update(k=k, a=ga, b=gb, expect_code=0 if equivalent else 1, files=[
                self._write(f"{tag}a.gg", gg_text(n, k, ga, k == 4)),
                self._write(f"{tag}b.gg", gg_text(n, k, gb, b_mixed))])
        elif cmd in ("spectrum", "classify"):
            n = stratum[1]
            edges = random_connected(rng, n, min(n * (n - 1) // 2, (3 * n) // 2))
            gains = {e: rng.choice(MIXED) for e in edges}
            if cmd == "classify" and rng.random() < 0.5:  # a balanced graph, switched
                theta = [0] + [rng.choice((0, 1)) for _ in range(n)]
                gains = {(u, v): (theta[v] - theta[u]) % 4 for u, v in edges}
            mixed = all(t in MIXED for t in gains.values())
            inst.update(n=n, gains=gains, mixed=mixed,
                        files=[self._write(f"{tag}.gg", gg_text(n, 4, gains, mixed))])
        elif cmd == "census":
            _, family, faces = stratum
            n, edges, face_list = self.FAMILIES[family]()
            edges, face_list = relabel(rng, n, edges, face_list)
            gains = {tuple(e): rng.choice(MIXED) for e in edges}
            inst.update(n=n, m=len(edges), faces=faces,
                        files=[self._write(f"{tag}.gg", gg_text(n, 4, gains, True, face_list))])
        elif cmd == "iso":
            _, family, positive = stratum
            n, edges, _ = self.SYMMETRIC[family][0]()
            if positive:
                ga = self._pattern(edges)
                gb = switched(rng, n, 4, ga)
            else:  # balanced against unbalanced: never switching isomorphic
                ga = {e: 0 for e in edges}
                gb = dict(ga)
                gb[max(edges)] = 1
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            gb = relabel_gains(perm, gb, 4)
            b_mixed = all(t in MIXED for t in gb.values())
            inst.update(expect_code=0 if positive else 1, files=[
                self._write(f"{tag}a.gg", gg_text(n, 4, ga, True)),
                self._write(f"{tag}b.gg", gg_text(n, 4, gb, b_mixed))])
        elif cmd == "product":
            _, na, nb = stratum
            k = rng.choice((2, 3, 4, 6))
            graphs = []
            for n in (na, nb):
                edges = random_connected(rng, n, min(n * (n - 1) // 2, n + 1))
                graphs.append((n, {e: rng.randrange(k) for e in edges}))
            (na, ga), (nb, gb) = graphs
            inst.update(k=k, n=na * nb, m=na * len(gb) + nb * len(ga), files=[
                self._write(f"{tag}a.gg", gg_text(na, k, ga, False)),
                self._write(f"{tag}b.gg", gg_text(nb, k, gb, False)), f"{tag}out.gg"])
        else:  # aut
            builder, order = self.SYMMETRIC[stratum[1]]
            n, edges, _ = builder()
            gains = self._pattern(edges)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            gains = relabel_gains(perm, gains, 4)
            inst.update(n=n, order=order, files=[self._write(f"{tag}.gg", gg_text(n, 4, gains, True))])
        inst["argv"] = self._argv(inst)
        return inst

    @staticmethod
    def _argv(inst) -> list[str]:
        files = inst["files"]
        argv = [inst["kind"], *files[:2]]
        if inst["kind"] == "product":
            argv += ["-o", files[2]]
        if inst["kind"] == "census" and inst["faces"]:
            argv.append("--faces")
        return argv

    def op(self, inst):
        files = {name: os.path.join(self.workdir, name) for name in inst["files"]}
        argv = [files.get(arg, arg) for arg in inst["argv"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, inst, result) -> None:
        code, text = result
        report = json.loads(text)
        expect(set(report) == {"command", "inputs", "result", "diagnostics"}, "report keys")
        if code != inst["expect_code"]:
            raise ExitMismatch(f"exit {code}, expected {inst['expect_code']}: {report['diagnostics']}")
        res = report["result"]
        check = getattr(self, f"_check_{inst['kind']}")
        check(inst, res)

    @staticmethod
    def _exp_of(label: str, k: int) -> int:
        named = {"1": 0, "-1": k // 2, "i": k // 4, "-i": 3 * k // 4}
        return named[label] if label in named else int(label.split("^")[1])

    def _check_equiv(self, inst, res) -> None:
        expect(res["equivalent"] == (inst["expect_code"] == 0), "equiv verdict")
        if res["equivalent"]:
            k = inst["k"]
            theta = {int(v): self._exp_of(lab, k) for v, lab in res["theta"].items()}
            expect(all((t - theta[u] + theta[v]) % k == inst["b"][(u, v)] for (u, v), t in inst["a"].items()),
                   "equiv theta does not switch a to b")

    def _check_spectrum(self, inst, res) -> None:
        ref = np.linalg.eigvalsh(hermitian(inst["n"], 4, inst["gains"]))
        got = np.array(res["eigenvalues"])
        expect(got.shape == ref.shape and np.all(np.abs(got - ref) <= 1e-9 + 1e-11 * (1 + np.abs(ref))),
               "spectrum report vs eigvalsh")
        expect(np.allclose(res["coefficients"], np.poly(ref), atol=1e-6), "char poly report vs np.poly")

    def _check_classify(self, inst, res) -> None:
        balanced = plain_balanced(inst["n"], 4, inst["gains"])
        expect(res["balanced"] == balanced, "classify balance vs vertex potential")
        expect(res["equivalent_to_negation"] == plain_bipartite(inst["n"], list(inst["gains"])),
               "classify negation vs bipartiteness")
        if inst["mixed"]:
            expect(res["spectral_balance_agrees"] is True, "classify spectral balance disagrees")

    def _check_census(self, inst, res) -> None:
        brute = res["brute_force"]
        expect(brute["total"] == 3 ** inst["m"] == sum(brute["sizes"]), "census sizes sum to 3^m")
        expect(all(res["cross_checks"].values()), f"census cross checks {res['cross_checks']}")
        if inst["faces"]:
            expect(res["plane"]["class_count"] == brute["class_count"], "plane count vs census")

    def _check_iso(self, inst, res) -> None:
        expect(res["isomorphic"] == (inst["expect_code"] == 0), "iso verdict")

    def _check_product(self, inst, res) -> None:
        expect((res["n"], res["m"], res["k"]) == (inst["n"], inst["m"], inst["k"]), "product size")
        prod, _ = gaincore.load_gg(os.path.join(self.workdir, inst["files"][2]))
        expect((prod.graph.n, prod.graph.m) == (inst["n"], inst["m"]), "product file size")

    def _check_aut(self, inst, res) -> None:
        order = inst["order"]
        expect(res["underlying_order"] == order, "automorphism group order vs construction")
        expect(order % res["gain_order"] == 0, "gain automorphisms are not a subgroup")
        expect(res["directed_part_order"] % res["gain_order"] == 0
               and res["undirected_part_order"] % res["gain_order"] == 0,
               "gain automorphisms are not in both part groups")


WORKLOADS = {w.name: w for w in (SweepSmall, SpectraMid, CensusMid, DecideLarge, CliReports)}
