"""End-to-end CLI checks: JSON reports, verdicts, and exit codes.

Exit code contract exercised throughout: 0 = computed / affirmative,
1 = negative verdict, 2 = validation or parse error, 3 = instance too
large for the configured caps.
"""

import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import gainswitch as gs
from gainswitch import cli, spectral, symmetry
from conftest import all_ones, complete_graph, cycle_graph, path_graph

DATA = pathlib.Path(__file__).parent / "data"
ARC_TRIANGLE = str(DATA / "arc_triangle.gg")
BOWTIE_MINUS = str(DATA / "bowtie_minus.gg")
BOWTIE_I = str(DATA / "bowtie_i.gg")
DIAMOND = str(DATA / "diamond.gg")
RELABELED = str(DATA / "bowtie_minus_relabeled.gg")
SIGNED_TRI = str(DATA / "signed_triangle.gg")
SIGNED_DIA = str(DATA / "signed_diamond.gg")
THETA = str(DATA / "theta_mixed.gg")

LABEL_EXP = {"1": 0, "i": 1, "-1": 2, "-i": 3}


def run(capsys, *argv):
    code = cli.main(list(argv))
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"command", "inputs", "result", "diagnostics"}
    return code, report


def test_equiv_switched_copy(tmp_path, capsys):
    a, _ = gs.load_gg(BOWTIE_MINUS)
    theta = gs.SwitchingFunction(a.group, (0, 1, 2, 3, 0))
    b = gs.apply_switching(a, theta)
    other = tmp_path / "switched.gg"
    gs.save_gg(b, other)
    code, report = run(capsys, "equiv", BOWTIE_MINUS, str(other))
    assert code == 0
    assert report["result"]["equivalent"] is True
    table = report["result"]["theta"]
    assert sorted(table) == ["1", "2", "3", "4", "5"]
    witness = gs.SwitchingFunction(a.group, tuple(LABEL_EXP[table[str(v)]] for v in range(1, 6)))
    assert gs.apply_switching(a, witness) == b


def test_equiv_negative_reports_first_difference(capsys):
    code, report = run(capsys, "equiv", BOWTIE_MINUS, BOWTIE_I)
    assert code == 1
    assert report["result"]["equivalent"] is False
    diff = report["result"]["first_difference"]
    assert diff == {"cycle": [2, 3, 1], "gain_a": "-1", "gain_b": "i"}


def test_equiv_different_underlying_graph(capsys):
    code, report = run(capsys, "equiv", ARC_TRIANGLE, DIAMOND)
    assert code == 2
    assert "different underlying graph" in report["diagnostics"][0]


def test_missing_file(capsys):
    code, report = run(capsys, "equiv", ARC_TRIANGLE, str(DATA / "no_such.gg"))
    assert code == 2
    assert "cannot read" in report["diagnostics"][0]


def test_spectrum_arc_triangle(capsys):
    code, report = run(capsys, "spectrum", ARC_TRIANGLE)
    assert code == 0
    res = report["result"]
    r3 = math.sqrt(3)
    assert all(abs(x - y) < 1e-9 for x, y in zip(res["eigenvalues"], [-r3, 0.0, r3]))
    assert res["coefficients"] == [1, 0, -3, 0]
    assert res["max_discrepancy"] < 1e-9
    assert report["command"] == "spectrum" and report["inputs"] == [ARC_TRIANGLE]


def test_spectrum_loose_tol_k6(tmp_path, capsys):
    path = tmp_path / "k6_path.gg"
    path.write_text("gg 6\nn 3\ne 1 2 1\ne 1 3 1\n")
    code, report = run(capsys, "spectrum", str(path), "--tol", "1e-2")
    assert code == 0
    res = report["result"]
    assert res["coefficients"] == [1, 0, -2, 0]
    r2 = math.sqrt(2)
    # ||H||_F = 2, so each eigenvalue is within 2 * tol
    assert all(abs(x - y) <= 2e-2 for x, y in zip(res["eigenvalues"], [-r2, 0.0, r2]))


def test_spectrum_cap_keeps_eigenvalues(capsys):
    code, report = run(capsys, "spectrum", "--max-enum", "1", BOWTIE_MINUS)
    assert code == 3
    res = report["result"]
    assert len(res["eigenvalues"]) == 5
    assert "coefficients" not in res
    assert report["diagnostics"][0].startswith("characteristic polynomial skipped")


def test_non_finite_tol_is_a_validation_error(capsys, tmp_path):
    # an infinite tol splits QL at once (the unbalanced arc triangle would
    # look spectrally balanced) and would print "tol": Infinity, not JSON.
    # Every command checks --tol before it runs, also those that ignore it,
    # and a tol of 0 or below fails as in spectral.spectrum.
    product = tmp_path / "product.gg"
    runs = (
        ("spectrum", DIAMOND), ("spectrum", ARC_TRIANGLE), ("classify", ARC_TRIANGLE),
        ("classify", SIGNED_TRI), ("equiv", SIGNED_TRI, SIGNED_TRI), ("census", DIAMOND),
        ("iso", BOWTIE_MINUS, RELABELED), ("product", DIAMOND, SIGNED_DIA, "-o", str(product)),
        ("aut", DIAMOND),
    )
    for argv in runs:
        for tol in ("inf", "nan", "0", "-1"):
            code, report = run(capsys, *argv, "--tol", tol)
            assert code == 2 and report["result"] == {}
            assert report["diagnostics"] == ["error: tol must be positive and finite"]
    assert not product.exists()


@pytest.mark.parametrize("option, command", [("--max-enum", "census"), ("--max-aut", "aut")])
def test_negative_caps_are_usage_errors(capsys, option, command):
    # no census method on the signed diamond escapes --max-enum (it has no block product)
    path = SIGNED_DIA if command == "census" else DIAMOND
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, option, "-1", path])
    assert exit_.value.code == 2
    assert f"argument {option}: must be at least 0, got -1" in capsys.readouterr().err
    code, _ = run(capsys, command, option, "0", path)  # 0 stays a cap, not a usage error
    assert code == 3


def test_census_diamond_with_faces(capsys):
    code, report = run(capsys, "census", "--faces", DIAMOND)
    assert code == 0
    res = report["result"]
    assert res["bounds"] == {"lower": 9, "upper": 16, "upper_tight": False}
    brute = res["brute_force"]
    assert brute["class_count"] == 16 and brute["total"] == 243
    assert brute["input_class_size"] == 16
    assert sum(brute["sizes"]) == 243
    assert brute["sizes"] == sorted(brute["sizes"], reverse=True)
    assert res["block_product_size"] == 16
    assert res["cactus"] is False
    assert res["plane"] == {"class_count": 16, "input_class_size": 16}
    assert res["cross_checks"] == {
        "sizes_sum_to_total": True,
        "brute_vs_blocks": True,
        "brute_count_vs_plane_count": True,
        "brute_vs_plane_size": True,
        "blocks_vs_plane_size": True,
    }


def test_census_report_builds_no_class_tuples(monkeypatch, capsys):
    made = []
    scan = gs.census.brute_force_census
    monkeypatch.setattr(gs.census, "brute_force_census", lambda *args: made.append(scan(*args)) or made[-1])
    code, report = run(capsys, "census", "--faces", DIAMOND)
    assert code == 0 and report["result"]["brute_force"]["class_count"] == 16
    assert len(made) == 1 and "classes" not in vars(made[0])


def test_census_above_the_rank_cap_reports_the_other_methods(monkeypatch, capsys):
    # The bowtie has rank 2 and two triangle blocks: the block product needs no
    # convolution, so it still applies under a rank cap of 1.
    monkeypatch.setattr(gs.census, "_MAX_DENSE_DIM", 1)
    code, report = run(capsys, "census", BOWTIE_MINUS)
    assert code == 0
    assert report["diagnostics"] == ["brute-force census skipped: census capped at rank 1, graph has rank 2"]
    res = report["result"]
    assert "brute_force" not in res and "cross_checks" not in res
    assert res["block_product_size"] == gs.census.class_size_by_blocks(gs.load_gg(BOWTIE_MINUS)[0])


def test_census_cycle_closed_form(capsys):
    code, report = run(capsys, "census", SIGNED_TRI)
    assert code == 0
    res = report["result"]
    assert res["cycle_class_sizes"] == {"1": 7, "-1": 6, "i": 7, "-i": 7}
    assert res["brute_force"]["class_count"] == 4
    assert sorted(res["brute_force"]["sizes"], reverse=True) == [7, 7, 7, 6]
    assert "input_class_size" not in res["brute_force"]  # not a mixed graph
    assert res["cross_checks"] == {"sizes_sum_to_total": True, "brute_vs_cycle_sizes": True}
    code, report = run(capsys, "census", ARC_TRIANGLE)
    assert code == 0
    assert report["result"]["cross_checks"] == {
        "sizes_sum_to_total": True,
        "brute_vs_cycle_sizes": True,
        "brute_vs_blocks": True,
    }


def test_census_faces_flag_requires_f_lines(capsys):
    code, report = run(capsys, "census", "--faces", ARC_TRIANGLE)
    assert code == 2
    assert "no f lines" in report["diagnostics"][0]


def test_census_no_method_under_tiny_cap(capsys):
    code, report = run(capsys, "census", "--max-enum", "1", SIGNED_DIA)
    assert code == 3
    assert any("no census method applies" in d for d in report["diagnostics"])
    assert "bounds" in report["result"]


def test_census_faces_over_the_cap_keeps_the_report(tmp_path, capsys):
    spokes = 14  # hub 1, rim 2..15: 14 triangular inner faces, above the 12-face cap
    rim = list(range(2, spokes + 2))
    lines = ["gg 4 mixed", f"n {spokes + 1}"]
    lines += [f"e 1 {r} i" for r in rim]
    lines += [f"e {r} {s} 1" for r, s in zip(rim, rim[1:] + rim[:1])]
    lines += [f"f 1 {r} {s}" for r, s in zip(rim, rim[1:] + rim[:1])]
    path = tmp_path / "wheel14.gg"
    path.write_text("\n".join(lines) + "\n")
    code, report = run(capsys, "census", "--faces", str(path))
    assert code == 3  # no method applies: 28 edges, rank 14, 14 faces
    assert report["result"]["bounds"] == {"lower": 3**14, "upper": 4**14, "upper_tight": False}
    assert "block product skipped: convolution over Z_4^d capped at d = 12, got d = 14" in report["diagnostics"]
    assert "plane census skipped: convolution over Z_4^d capped at d = 12, got d = 14" in report["diagnostics"]
    assert any("no census method applies" in d for d in report["diagnostics"])
    assert "plane" not in report["result"]


def test_census_theta_past_the_scan_cap(capsys):
    # 18 edges in three series runs of 6: no scan, but the block product (rank 2)
    # answers, and with --faces it is checked against the plane formula
    code, report = run(capsys, "census", THETA)
    assert code == 0
    assert report["diagnostics"] == ["brute-force census skipped: 18 edges exceed the cap 16"]
    size = report["result"]["block_product_size"]
    assert size == gs.census.class_size_by_blocks(gs.load_gg(THETA)[0])
    code, report = run(capsys, "census", "--faces", THETA)
    assert code == 0
    res = report["result"]
    assert res["plane"] == {"class_count": 16, "input_class_size": size}
    assert res["cross_checks"] == {"blocks_vs_plane_size": True}


def test_cross_checks_keep_their_order(capsys):
    for argv, names in (
        (["census", ARC_TRIANGLE], ["sizes_sum_to_total", "brute_vs_cycle_sizes", "brute_vs_blocks"]),
        (
            ["census", "--faces", DIAMOND],
            [
                "sizes_sum_to_total",
                "brute_vs_blocks",
                "brute_count_vs_plane_count",
                "brute_vs_plane_size",
                "blocks_vs_plane_size",
            ],
        ),
        (["census", "--faces", THETA], ["blocks_vs_plane_size"]),
    ):
        code, report = run(capsys, *argv)
        assert code == 0 and list(report["result"]["cross_checks"]) == names, argv


def test_every_float_in_a_report_has_12_significant_digits(tmp_path, capsys):
    files = sorted(map(str, DATA.glob("*.gg")))
    argvs = [[cmd, f] for f in files for cmd in ("census", "spectrum", "classify", "aut")]
    argvs += [["spectrum", "--max-enum", "1", f] for f in files] + [["spectrum", "--tol", "1e-2", f] for f in files]
    argvs += [["census", "--faces", DIAMOND], ["census", "--faces", THETA]]
    argvs += [[cmd, f, f] for f in files for cmd in ("equiv", "iso")]
    argvs += [["product", ARC_TRIANGLE, DIAMOND, "-o", str(tmp_path / "p.gg")]]
    floats = []
    for argv in argvs:
        cli.main(argv)
        json.loads(capsys.readouterr().out, parse_float=lambda text: floats.append(float(text)) or floats[-1])
    assert len(floats) > 100
    assert all(x == float(f"{x:.12g}") for x in floats)


def test_classify_arc_triangle(capsys):
    code, report = run(capsys, "classify", ARC_TRIANGLE)
    assert code == 0
    res = report["result"]
    assert res["balanced"] is False
    assert res["negative"] is False
    assert res["imaginary"] is True
    assert res["character"] == "imaginary"
    assert res["equivalent_to_negation"] is False
    assert res["cactus"] is True
    assert res["mixed"] is True
    assert res["spectral_balance"] is False
    assert res["spectral_balance_agrees"] is True


def test_classify_balanced(tmp_path, capsys):
    path = tmp_path / "ones.gg"
    gs.save_gg(all_ones(cycle_graph(4)), path)
    code, report = run(capsys, "classify", str(path))
    assert code == 0
    res = report["result"]
    assert res["balanced"] is True and res["character"] == "balanced"
    assert res["equivalent_to_negation"] is True  # C4 is bipartite
    assert res["spectral_balance"] is True and res["spectral_balance_agrees"] is True


def test_classify_needs_no_cycle_cap(tmp_path, capsys):
    """A 13-cycle with one arc: one vertex past the old enumeration cap."""
    path = tmp_path / "arc_13_cycle.gg"
    arcs = [(v, v % 13 + 1, 1 if v == 1 else 0) for v in range(1, 14)]
    gs.save_gg(gs.build_gain_graph(13, gs.GainGroup(4), arcs, mixed_mode=True), path)
    for caps in ([], ["--max-enum", "0"]):
        code, report = run(capsys, "classify", *caps, str(path))
        assert code == 0
        assert report["result"]["character"] == "imaginary" and report["result"]["cactus"] is True


def test_classify_and_spectrum_past_the_spectrum_order_cap(monkeypatch, tmp_path, capsys):
    """At the spectrum order cap both run; one vertex past it classify keeps its
    combinatorial verdicts, reports the spectral cross-check as skipped and
    exits 0, and spectrum exits 3 with the cap in its diagnostic."""
    def arc_cycle(n):  # a cycle with one arc: imaginary
        path = tmp_path / f"arc_cycle_{n}.gg"
        arcs = [(v, v % n + 1, 1 if v == 1 else 0) for v in range(1, n + 1)]
        gs.save_gg(gs.build_gain_graph(n, gs.GainGroup(4), arcs, mixed_mode=True), path)
        return str(path)

    verdicts = {"balanced": False, "negative": False, "imaginary": True, "character": "imaginary",
                "cactus": True, "mixed": True}
    for cap in (8, gs.spectral.SPECTRUM_MAX_ORDER):
        monkeypatch.setattr(gs.spectral, "SPECTRUM_MAX_ORDER", cap)
        refused = f"Hermitian spectrum capped at {cap} vertices, graph has {cap + 1}"
        code, report = run(capsys, "classify", arc_cycle(cap + 1))
        assert code == 0 and report["diagnostics"] == [f"spectral balance cross-check skipped: {refused}"]
        assert report["result"] == {**verdicts, "equivalent_to_negation": (cap + 1) % 2 == 0}
        code, report = run(capsys, "spectrum", arc_cycle(cap + 1))
        assert code == 3 and report["result"] == {} and report["diagnostics"] == [f"error: {refused}"]
    monkeypatch.setattr(gs.spectral, "SPECTRUM_MAX_ORDER", 8)
    code, report = run(capsys, "classify", arc_cycle(8))
    assert code == 0 and report["diagnostics"] == []
    assert report["result"]["spectral_balance"] is False and report["result"]["spectral_balance_agrees"] is True
    code, report = run(capsys, "spectrum", arc_cycle(8))
    assert code == 0 and len(report["result"]["eigenvalues"]) == 8


def test_classify_and_spectrum_on_a_ladder_past_the_old_order_cap(tmp_path, capsys):
    """A 2 x 100 mixed ladder (n 200, past the 96 vertices the Jacobi route
    took): classify runs its spectral cross-check, and spectrum gives all 200
    eigenvalues, within tol * ||H||_F of eigvalsh, and exits 3 only on the
    elementary polynomial's cap."""
    rng = random.Random(100)
    rails = [(i, i + 1) for i in (*range(1, 100), *range(101, 200))]
    arcs = [(u, v, rng.choice(gs.MIXED_EXPONENTS)) for u, v in rails + [(i, 100 + i) for i in range(1, 101)]]
    g = gs.build_gain_graph(200, gs.GainGroup(4), arcs, mixed_mode=True)
    path = tmp_path / "ladder.gg"
    gs.save_gg(g, path)
    code, report = run(capsys, "classify", str(path))
    assert code == 0 and report["diagnostics"] == []
    assert report["result"]["spectral_balance"] == report["result"]["balanced"]
    assert report["result"]["spectral_balance_agrees"] is True
    code, report = run(capsys, "spectrum", str(path))
    assert code == 3
    assert report["diagnostics"] == [
        "characteristic polynomial skipped: elementary-subgraph enumeration capped at 14 vertices, graph has 200"
    ]
    h = gs.hermitian_matrix(g)
    got = report["result"]["eigenvalues"]
    assert len(got) == 200 and got == sorted(got)
    assert max(abs(x - y) for x, y in zip(got, np.linalg.eigvalsh(h))) <= 1e-9 * np.linalg.norm(h)


def test_spectrum_numeric_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "QL_MAX_ITERATIONS", 0)
    spectral._spectrum_cached.cache_clear()
    code, report = run(capsys, "spectrum", ARC_TRIANGLE)
    assert code == 2 and report["result"] == {}
    assert report["diagnostics"] == ["error: QL iteration did not converge in 0 steps"]


def test_iso_relabeled_bowtie(capsys):
    code, report = run(capsys, "iso", BOWTIE_MINUS, RELABELED)
    assert code == 0
    res = report["result"]
    assert res["isomorphic"] is True
    assert res["relabeling"] == [1, 3, 2, 4, 5]
    assert sorted(res["permutation"]) == [1, 2, 3, 4, 5]
    assert set(res["theta"].values()) <= set(LABEL_EXP)


def test_iso_bowtie_orientations_differ(capsys):
    code, report = run(capsys, "iso", BOWTIE_MINUS, BOWTIE_I)
    assert code == 1
    assert report["result"]["isomorphic"] is False
    assert report["result"]["relabeling"] is None


def _signed_complete(n: int, negative) -> gs.GainGraph:
    edges = [(u, v, int((u, v) in negative)) for u in range(1, n) for v in range(u + 1, n + 1)]
    return gs.build_gain_graph(n, gs.GainGroup(2), edges)


def test_iso_decides_signed_k10_with_one_search(monkeypatch, tmp_path, capsys):
    # two disjoint negative edges against two adjacent ones: 16 and 14 negative
    # triangles, a count that switching and relabelling keep.  A walk over the
    # 10! automorphisms of K10, calling switching_equivalent on each, takes
    # minutes.
    paths = {}
    for name, negative in (("disjoint", {(1, 2), (3, 4)}), ("adjacent", {(1, 2), (2, 3)}),
                           ("adjacent_moved", {(5, 9), (9, 10)})):
        paths[name] = str(tmp_path / f"{name}.gg")
        gs.save_gg(_signed_complete(10, negative), paths[name])
    start = time.process_time()
    code, report = run(capsys, "iso", paths["disjoint"], paths["adjacent"])
    elapsed = time.process_time() - start
    assert code == 1 and report["result"] == {"isomorphic": False, "relabeling": None}
    assert elapsed < 1.0

    calls = []
    equivalent = symmetry.switching_equivalent

    def counting(*args, **kwargs):
        calls.append(args)
        return equivalent(*args, **kwargs)

    monkeypatch.setattr(symmetry, "switching_equivalent", counting)
    pairs = [(paths["disjoint"], paths["adjacent"]), (paths["adjacent"], paths["adjacent_moved"]),
             (BOWTIE_MINUS, RELABELED), (BOWTIE_MINUS, BOWTIE_I), (SIGNED_DIA, SIGNED_DIA)]
    for a, b in pairs:
        calls.clear()
        code, _ = run(capsys, "iso", a, b)
        assert len(calls) == (code == 0)  # the search's hit is verified once; a miss is never tried


def test_iso_non_isomorphic_underlying(capsys):
    code, report = run(capsys, "iso", ARC_TRIANGLE, DIAMOND)
    assert code == 1
    assert report["result"]["reason"] == "underlying graphs are not isomorphic"


def test_iso_group_mismatch(capsys):
    code, report = run(capsys, "iso", SIGNED_TRI, ARC_TRIANGLE)
    assert code == 2
    assert "gain group mismatch" in report["diagnostics"][0]


def test_product_round_trip(tmp_path, capsys):
    out = tmp_path / "torus.gg"
    code, report = run(capsys, "product", ARC_TRIANGLE, ARC_TRIANGLE, "-o", str(out))
    assert code == 0
    assert report["result"] == {"n": 9, "m": 18, "k": 4, "mixed": True, "output": str(out)}
    prod, _ = gs.load_gg(out)
    assert prod.graph.n == 9 and prod.graph.m == 18
    # eigenvalues of a product are pairwise sums of the factors'
    r3 = math.sqrt(3)
    want = sorted(a + b for a in (-r3, 0.0, r3) for b in (-r3, 0.0, r3))
    got = gs.spectrum(prod).eigenvalues
    assert all(abs(x - y) < 1e-8 for x, y in zip(got, want))


def test_product_past_the_cap_exits_3_and_writes_nothing(monkeypatch, tmp_path, capsys):
    """The diamond squared has 16 vertices and 40 edges: with the product cap
    at 39 it exits 3 with the cap's diagnostic and writes no file, at 40 it exits 0."""
    out = tmp_path / "square.gg"
    monkeypatch.setattr(spectral, "PRODUCT_MAX_SIZE", 39)
    code, report = run(capsys, "product", DIAMOND, DIAMOND, "-o", str(out))
    assert code == 3 and report["result"] == {}
    assert report["diagnostics"] == ["error: Cartesian product capped at 39 edges, graph has 40"]
    assert not out.exists()
    monkeypatch.setattr(spectral, "PRODUCT_MAX_SIZE", 40)
    code, report = run(capsys, "product", DIAMOND, DIAMOND, "-o", str(out))
    assert code == 0 and report["result"]["n"] == 16 and report["result"]["m"] == 40
    assert gs.load_gg(out)[0] == gs.cartesian_product(*[gs.load_gg(DIAMOND)[0]] * 2)


def test_aut_bowtie(capsys):
    code, report = run(capsys, "aut", BOWTIE_MINUS)
    assert code == 0
    res = report["result"]
    assert res["underlying_order"] == 8
    assert res["gain_order"] == 1
    assert res["gain_generators"] == []
    assert res["directed_part_order"] == 1
    assert res["undirected_part_order"] == 8
    gens = [gs.VertexPermutation(tuple(img)) for img in res["underlying_generators"]]
    assert gens and all(not f.is_identity() for f in gens)


def test_aut_reaches_signed_k10_without_listing_it(tmp_path, capsys):
    # the negative edges form a perfect matching: its group has 2^5 * 5! elements
    matching = {(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)}
    edges = [(u, v, int((u, v) in matching)) for u in range(1, 10) for v in range(u + 1, 11)]
    k10 = tmp_path / "signed_k10.gg"
    gs.save_gg(gs.build_gain_graph(10, gs.GainGroup(2), edges), k10)
    start = time.process_time()
    code, report = run(capsys, "aut", str(k10), "--max-aut", "10")
    elapsed = time.process_time() - start
    res = report["result"]
    assert code == 0 and res["underlying_order"] == math.factorial(10) and res["gain_order"] == 3840
    swaps = []
    for i in range(9, 0, -1):
        image = list(range(1, 11))
        image[i - 1], image[i] = i + 1, i
        swaps.append(image)
    assert res["underlying_generators"] == swaps
    assert elapsed < 1.0  # listing signed K9's group alone took about 1 s


def test_aut_reaches_all_undirected_mixed_k10(tmp_path, capsys):
    # with no arcs all four groups are S10, and no element of one is listed
    k10 = tmp_path / "mixed_k10.gg"
    gs.save_gg(all_ones(complete_graph(10)), k10)
    start = time.process_time()
    code, report = run(capsys, "aut", str(k10), "--max-aut", "10")
    elapsed = time.process_time() - start
    res = report["result"]
    assert code == 0
    orders = ("underlying_order", "gain_order", "directed_part_order", "undirected_part_order")
    assert [res[key] for key in orders] == [math.factorial(10)] * 4
    assert res["gain_generators"] == res["underlying_generators"]
    assert elapsed < 1.0


def _count_tables(monkeypatch) -> list:
    """Record (graph, tables) of every ``_tables`` call: one per graph searched."""
    built = []
    build = symmetry._tables

    def counting(a, b, *rest):
        built.append((a, build(a, b, *rest)))
        return built[-1][1]

    monkeypatch.setattr(symmetry, "_tables", counting)
    return built


def _forbid(monkeypatch, name: str) -> list:
    """Record every call of ``symmetry.<name>``, which must not be made."""
    calls = []
    monkeypatch.setattr(symmetry, name, lambda *args: calls.append(args) or iter(()))
    return calls


def test_aut_searches_the_underlying_graph_once(monkeypatch, capsys):
    built = _count_tables(monkeypatch)
    listing = ("automorphisms",)
    listed = [_forbid(monkeypatch, name) for name in listing]
    runs = []  # (tables, restrict) of every search run
    search = symmetry._search

    def recording(tables, pinned=(), restrict=-1):
        runs.append((tables, restrict))
        return search(tables, pinned, restrict)

    monkeypatch.setattr(symmetry, "_search", recording)
    for path, graphs in ((BOWTIE_MINUS, 4), (SIGNED_TRI, 2)):
        built.clear()
        runs.clear()
        code, report = run(capsys, "aut", path)
        assert code == 0
        g, _ = gs.load_gg(path)
        # mixed: the underlying graph, the directed part, the undirected part
        # and the input; signed: the underlying graph and the input.  Each
        # graph's tables are built once; a SimpleGraph never equals a GainGraph.
        searched = [a for a, _ in built]
        assert len(searched) == len(set(searched)) == graphs
        assert searched.count(g.graph) == 1 and searched.count(g) == 1
        # the underlying group is never listed: every run on its tables is a
        # chain level's first-solution search, restricted to points off the orbit
        of_g = next(tables for a, tables in built if a == g.graph)
        restricts = [r for tables, r in runs if tables is of_g]
        assert restricts and -1 not in restricts
    assert report["result"]["underlying_order"] == 6 and listed == [[]] * len(listing)


def test_aut_searches_the_input_for_its_gain_group_once(monkeypatch, capsys, tmp_path):
    built = _count_tables(monkeypatch)
    tested = _forbid(monkeypatch, "_moved_exps")
    for path, graphs, gain_order in ((BOWTIE_MINUS, 4, 1), (SIGNED_TRI, 2, 2)):
        built.clear()
        code, report = run(capsys, "aut", path)
        assert code == 0 and report["result"]["gain_order"] == gain_order
        g, _ = gs.load_gg(path)
        searched = [a for a, _ in built]
        assert len(searched) == graphs and searched.count(g) == 1
    # the gain groups come from their own searches: no element of an
    # underlying group is tested for gains
    assert tested == []

    # an arc 1 -> 2 and undirected edges 1-3, 1-4: swapping 3 and 4 preserves
    # every gain, and the undirected part's chain must hold it
    star = tmp_path / "star.gg"
    gs.save_gg(gs.build_gain_graph(4, gs.GainGroup(4), [(1, 2, 1), (1, 3, 0), (1, 4, 0)], True), star)
    built.clear()
    code, report = run(capsys, "aut", str(star))
    assert code == 0 and report["result"]["gain_order"] == report["result"]["undirected_part_order"] == 2
    undirected = gs.SimpleGraph(4, [(1, 3), (1, 4)])
    assert [a for a, _ in built].count(undirected) == 1
    search = symmetry._search

    def losing_a_generator_of_u(tables, *rest):
        of_u = [t for a, t in built if a == undirected]
        return iter(()) if tables is of_u[-1] else search(tables, *rest)

    monkeypatch.setattr(symmetry, "_search", losing_a_generator_of_u)
    with pytest.raises(AssertionError, match="intersection identities"):
        cli.main(["aut", str(star)])


def test_census_and_classify_on_a_long_path(tmp_path, capsys):
    # a DFS tree 1600 vertices deep once overflowed the block decomposition
    mixed_path = tmp_path / "mixed_path.gg"
    gs.save_gg(all_ones(path_graph(1600)), mixed_path)
    code, report = run(capsys, "census", str(mixed_path))
    assert code == 0
    assert report["result"]["cactus"] is True
    assert report["result"]["block_product_size"] == 3**1599
    plain_path = tmp_path / "plain_path.gg"
    gs.save_gg(all_ones(path_graph(1600), mixed_mode=False), plain_path)
    code, report = run(capsys, "classify", str(plain_path))
    assert code == 0
    assert report["result"]["cactus"] is True and report["result"]["balanced"] is True


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.gg"
    bad.write_text("gg 4 mixed\nn 2\ne 1 2 q\n")
    code, report = run(capsys, "spectrum", str(bad))
    assert code == 2
    assert "line 3" in report["diagnostics"][0]


def test_json_pretty_flag(capsys):
    code = cli.main(["spectrum", "--json-pretty", ARC_TRIANGLE])
    pretty = capsys.readouterr().out
    assert code == 0 and pretty.startswith("{\n")
    code = cli.main(["spectrum", ARC_TRIANGLE])
    plain = capsys.readouterr().out
    assert code == 0 and "\n" not in plain.strip()
    assert json.loads(pretty) == json.loads(plain)


def test_parser_is_built_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run(capsys, "spectrum", ARC_TRIANGLE)[0] == 0
        assert run(capsys, "classify", ARC_TRIANGLE)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_reused_parser_prints_what_a_fresh_process_prints(capsys):
    # flags and subcommands change from call to call; none may leak into the next
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gs.__file__).resolve().parents[1]))
    for argv in (
        ["spectrum", "--json-pretty", ARC_TRIANGLE],
        ["census", "--faces", DIAMOND],
        ["spectrum", "--tol", "1e-4", BOWTIE_I],
        ["census", DIAMOND],
        ["classify", "--tol", "1e-2", ARC_TRIANGLE],
        ["spectrum", ARC_TRIANGLE],
    ):
        code = cli.main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "gainswitch.cli", *argv], capture_output=True, text=True, env=env, check=False
        )
        assert (code, out) == (fresh.returncode, fresh.stdout)
