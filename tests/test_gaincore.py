"""Core types: gain groups, exponents, graphs, Hermitian matrices, .gg format.

Claims covered:
    - group axioms hold exhaustively for orders up to 12
    - conjugation is the inverse and an involution
    - quarter-turn gains have bit-exact complex values; others match cmath
    - mixed mode accepts only gains 1, i, -i
    - SimpleGraph validates and canonicalizes its edge list
    - hermitian_matrix output is bit-exactly Hermitian with zero diagonal
    - parse/format round-trips every valid gain graph, including k = 4 aliases
"""

import cmath
import math
import random

import numpy as np
import pytest

import gainswitch as gs
from gainswitch.errors import ValidationError

from conftest import G4, all_ones, complete_graph, arc_triangle, mixed, random_connected_graph, random_gains


def test_group_axioms_exhaustive():
    for k in range(1, 13):
        group = gs.GainGroup(k)
        elems = group.elements()
        assert len(elems) == k
        one = group.one
        for a in elems:
            assert a * one == a
            assert a * a.conj() == one
            assert a.conj().conj() == a
            for b in elems:
                assert a * b == b * a
                for c in elems:
                    assert (a * b) * c == a * (b * c)


def test_group_order_must_be_positive():
    with pytest.raises(ValidationError):
        gs.GainGroup(0)
    with pytest.raises(ValidationError):
        gs.GainGroup(-3)


def test_exponent_reduction_and_mismatch():
    g6 = gs.GainGroup(6)
    assert gs.GainExponent(g6, 2) * gs.GainExponent(g6, 5) == gs.GainExponent(g6, 1)
    with pytest.raises(ValidationError):
        gs.GainExponent(g6, 1) * gs.GainExponent(G4, 1)


def test_quarter_turn_values_are_exact():
    assert gs.GainExponent(G4, 0).value == 1 + 0j
    assert gs.GainExponent(G4, 1).value == 1j
    assert gs.GainExponent(G4, 2).value == -1 + 0j
    assert gs.GainExponent(G4, 3).value == -1j
    g8 = gs.GainGroup(8)
    assert gs.GainExponent(g8, 2).value == 1j
    assert gs.GainExponent(g8, 4).value == -1 + 0j


def test_values_match_cmath_for_all_small_orders():
    for k in range(1, 13):
        group = gs.GainGroup(k)
        for t in range(k):
            want = cmath.exp(2j * math.pi * t / k)
            assert abs(gs.GainExponent(group, t).value - want) < 1e-12


def test_gain_predicates_and_labels():
    assert gs.GainExponent(G4, 0).is_one()
    assert gs.GainExponent(G4, 2).is_minus_one()
    assert gs.GainExponent(G4, 1).is_imaginary_unit()
    assert gs.GainExponent(G4, 3).is_imaginary_unit()
    assert not gs.GainExponent(G4, 0).is_imaginary_unit()
    labels = [gs.GainExponent(G4, t).label() for t in range(4)]
    assert labels == ["1", "i", "-1", "-i"]
    g3 = gs.GainGroup(3)
    assert not gs.GainExponent(g3, 1).is_minus_one()


def test_simple_graph_canonicalizes_and_validates():
    g = gs.SimpleGraph(4, [(3, 1), (2, 1), (4, 2)])
    assert g.edges == ((1, 2), (1, 3), (2, 4))
    assert g.m == 3
    assert g.degree(2) == 2
    assert sorted(g.neighbors(1)) == [2, 3]
    assert g.has_edge(3, 1) and not g.has_edge(3, 4)
    with pytest.raises(ValidationError):
        gs.SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValidationError):
        gs.SimpleGraph(3, [(1, 2), (2, 1)])
    with pytest.raises(ValidationError):
        gs.SimpleGraph(3, [(1, 4)])
    with pytest.raises(ValidationError):
        gs.SimpleGraph(-1, [])


def test_components():
    g = gs.SimpleGraph(5, [(1, 2), (4, 5)])
    comps = g.components()
    assert sorted(sorted(c) for c in comps) == [[1, 2], [3], [4, 5]]
    assert g.num_components == 3


def test_mixed_mode_rejects_minus_one():
    with pytest.raises(ValidationError, match="mixed graphs allow only gains 1, i, -i"):
        mixed(2, [(1, 2, 2)])
    with pytest.raises(ValidationError):
        gs.GainGraph(gs.SimpleGraph(2, [(1, 2)]), gs.GainGroup(3), (gs.GainGroup(3).one,), mixed_mode=True)


def test_build_gain_graph_orientation_handling():
    g = mixed(3, [(2, 1, 1), (2, 3, 1), (3, 1, 0)])
    # gain stored on the canonical orientation 1 -> 2 is the conjugate of 2 -> 1
    assert g.gain(1, 2) == gs.GainExponent(G4, 3)
    assert g.gain(2, 1) == gs.GainExponent(G4, 1)
    assert g.gain(2, 3).exp == 1
    with pytest.raises(ValidationError):
        mixed(3, [(1, 2, 1), (2, 1, 1)])
    with pytest.raises(ValidationError):
        gs.build_gain_graph(2, G4, [(1, 2, 4)])
    with pytest.raises(ValidationError):
        gs.build_gain_graph(2, G4, [(1, 2, gs.GainExponent(gs.GainGroup(3), 1))])


def test_gain_lookup_errors():
    g = arc_triangle()
    with pytest.raises(ValidationError):
        g.gain(1, 1)
    with pytest.raises(ValidationError):
        g.gain(1, 4)


def test_hermitian_matrix_bit_symmetry():
    rng = random.Random(7)
    for _ in range(25):
        graph = random_connected_graph(rng, n_hi=7)
        g = random_gains(rng, graph, k=rng.choice([2, 3, 4, 5, 8]))
        h = gs.hermitian_matrix(g)
        assert np.array_equal(h, h.conj().T)
        assert np.all(np.diag(h) == 0)
        for (u, v), gain in zip(graph.edges, g.gains):
            assert h[u - 1, v - 1] == gain.value


def test_hermitian_matrix_arc_triangle():
    h = gs.hermitian_matrix(arc_triangle())
    want = np.array([[0, 1j, 1], [-1j, 0, 1], [1, 1, 0]], dtype=complex)
    assert np.array_equal(h, want)


def test_underlying_and_negate():
    g = arc_triangle()
    u = gs.underlying(g)
    assert all(x.is_one() for x in u.gains)
    assert u.mixed_mode
    n = gs.negate(g)
    assert not n.mixed_mode
    assert [x.exp for x in n.gains] == [(x.exp + 2) % 4 for x in g.gains]
    nn = gs.negate(n)
    assert nn.gains == g.gains
    with pytest.raises(ValidationError):
        gs.negate(random_gains(random.Random(1), complete_graph(3), k=3))


def test_switching_function_basics():
    theta = gs.SwitchingFunction.identity(G4, 3)
    assert theta.is_identity()
    vals = (gs.GainExponent(G4, 1), gs.GainExponent(G4, 2), gs.GainExponent(G4, 0))
    phi = gs.SwitchingFunction(vals)
    assert phi(1).exp == 1
    assert phi.conj()(2).exp == 2
    assert phi.mul(phi.conj()).is_identity()
    with pytest.raises(ValidationError):
        phi.mul(gs.SwitchingFunction.identity(G4, 4))


def test_parse_gg_mixed_aliases():
    g, faces = gs.parse_gg("gg 4 mixed\nn 3\ne 1 2 i\ne 2 3 1\ne 3 1 -i\n")
    assert g.mixed_mode
    assert g.gain(1, 2).exp == 1
    assert g.gain(2, 3).exp == 0
    assert g.gain(3, 1).exp == 3
    assert faces == ()


def test_parse_gg_numeric_and_faces():
    text = "# comment\ngg 6\nn 4\ne 1 2 5\ne 2 3 0  # inline\nf 1 2 3\n"
    g, faces = gs.parse_gg(text)
    assert g.group.order == 6
    assert not g.mixed_mode
    assert g.gain(1, 2).exp == 5
    assert faces == ((1, 2, 3),)


def test_parse_gg_error_lines():
    with pytest.raises(ValidationError, match="line 1"):
        gs.parse_gg("eh 4\n")
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 4\nn 2\ne 1 2\n")
    with pytest.raises(ValidationError, match="line 2"):
        gs.parse_gg("gg 4\nf 1 2 3\n")
    with pytest.raises(ValidationError):
        gs.parse_gg("gg 4\nn 2\ne 1 2 7\n")
    with pytest.raises(ValidationError):
        gs.parse_gg("n 2\ne 1 2 0\n")
    with pytest.raises(ValidationError, match="line 2"):
        gs.parse_gg("gg 4\nn 3 9\n")
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 4\nn 2\ne 1 2 i extra\n")
    with pytest.raises(ValidationError, match="line 2"):
        gs.parse_gg("gg 4\nn 1_0\n")  # int() reads 10
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 4\nn 2\ne \u0661 2 1\n")  # Arabic-Indic digit one
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 6\nn 2\ne 1 2 \u0661\n")
    with pytest.raises(ValidationError, match="line 1"):
        gs.parse_gg("gg +3\nn 2\n")
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 4\nn 3\nf 1 2 +3\n")
    with pytest.raises(ValidationError, match="line 3"):
        gs.parse_gg("gg 4\nn 3\nf\n")


def test_round_trip_random(rng):
    for _ in range(60):
        graph = random_connected_graph(rng, n_hi=7)
        k = rng.choice([1, 2, 3, 4, 4, 5, 8])
        mixed_mode = k == 4 and rng.random() < 0.5
        g = random_gains(rng, graph, k=k, mixed_mode=mixed_mode)
        back, faces = gs.parse_gg(gs.format_gg(g))
        assert back == g
        assert faces == ()


def test_round_trip_preserves_faces(tmp_path):
    g = all_ones(gs.SimpleGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    path = tmp_path / "c4.gg"
    gs.save_gg(g, path, faces=[(1, 2, 3, 4)])
    back, faces = gs.load_gg(path)
    assert back == g
    assert faces == ((1, 2, 3, 4),)


def test_round_trip_k4_exponent_one_not_alias_one():
    # exponent 1 means gain i for k = 4; the writer must not emit a bare "1"
    g = mixed(2, [(1, 2, 1)])
    back, _ = gs.parse_gg(gs.format_gg(g))
    assert back.gain(1, 2).exp == 1


def test_gain_graph_equality_and_hash():
    a = arc_triangle()
    b = mixed(3, [(1, 2, 1), (2, 3, 0), (3, 1, 0)])
    assert a == b and hash(a) == hash(b)
    c = mixed(3, [(1, 2, 3), (2, 3, 0), (3, 1, 0)])
    assert a != c
    assert a != gs.GainGraph(a.graph, G4, a.gains, mixed_mode=False)
