"""Property tests for the ``.gg`` reader and writer.

Claims covered:
    - ``parse_gg(format_gg(g, faces)) == (g, faces)`` for every gain group
      order 1..8, mixed and not, with and without face lines
    - any soup of lines over the format's tokens either parses or raises
      ``ValidationError``; no other exception escapes the reader
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import gainswitch as gs  # noqa: E402

given, settings = hypothesis.given, hypothesis.settings


@st.composite
def gain_graphs_with_faces(draw):
    k = draw(st.integers(1, 8))
    mixed = k == 4 and draw(st.booleans())
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    group = gs.GainGroup(k)
    pool = gs.MIXED_EXPONENTS if mixed else tuple(range(k))
    gains = [group.element(draw(st.sampled_from(pool))) for _ in edges]
    g = gs.GainGraph(gs.SimpleGraph(n, edges), group, gains, mixed_mode=mixed)
    face = st.lists(st.integers(1, n), min_size=1, max_size=5).map(tuple)
    faces = tuple(draw(st.lists(face, max_size=3))) if n else ()
    return g, faces


@settings(max_examples=150, deadline=None)
@given(gain_graphs_with_faces())
def test_format_then_parse_round_trips(case):
    g, faces = case
    assert gs.parse_gg(gs.format_gg(g, faces)) == (g, faces)


TOKENS = (
    "gg", "n", "e", "f", "mixed", "#", "i", "-i", "1", "-1", "0", "2", "3", "4", "5", "-2",
    "1_0", "+3", "١", "x", "w^3", "e1", "--1",
)
LINE = st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join)
HEADERS = st.sampled_from(["", "gg 4\nn 3\n", "gg 4 mixed\nn 4\n", "gg 6\nn 3\n", "gg 1\nn 2\n"])


@settings(max_examples=300, deadline=None)
@given(HEADERS, st.lists(LINE, max_size=8))
def test_line_soup_parses_or_raises_validation_error(header, lines):
    try:
        gs.parse_gg(header + "\n".join(lines))
    except gs.ValidationError:
        pass
