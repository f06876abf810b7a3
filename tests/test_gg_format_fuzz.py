"""Property tests for the ``.gg`` reader and writer.

Claims covered:
    - ``parse_gg(format_gg(g, faces)) == (g, faces)`` for every gain group
      order 1..8, mixed and not, with and without face lines
    - any soup of lines over the format's tokens either parses or raises
      ``ValidationError``; no other exception escapes the reader
    - the reader with every canonical run read in bulk, with none (the
      line loop over every line, keyed by the exact per-row route) and as
      shipped give the same graph, or the same message, on format_gg output
      and on rewritten texts (reversed edges, shuffled lines, tabs, CRLF,
      leading zeros, comments, one bad line), for k 1..8 and edge counts on
      both sides of the bulk threshold; the array keying takes every valid
      canonical text whose keys fit int64 and leaves the rest to the exact
      route, with n on both sides of that bound and a vertex token past
      int64 on a line of its own
    - a run of at least 64 canonical e lines with one perturbation (a bad
      field, a comment, a tab, CRLF, a form feed, a field past int64 or with
      leading zeros, an e line before the header, a repeated pair, trailing
      f lines) parses as the line loop alone does, graph and faces or
      message; the array keying builds only valid graphs
    - every run of at least ``_ARRAY_PARSE_EDGES`` canonical e lines is read
      in bulk wherever it starts: after a first e line with a comment, a tab
      or CRLF, on both sides of a comment line and after a shorter run; when
      the array keying refuses such a text, the first bad edge in file order
      is named
"""

import itertools
import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import gainswitch as gs  # noqa: E402
from gainswitch import gaincore  # noqa: E402

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


def parse_by(text, route):
    """``parse_gg(text)`` with every canonical run read in bulk, however
    short ("array"), none ("exact": the line loop reads every line) or the
    runs of at least ``_ARRAY_PARSE_EDGES`` lines ("default"): the graph and
    faces, or the message; whether the array keying built the graph; and,
    when it ran, the line count of each bulk run and how many ``e`` lines
    the loop read."""
    taken, keyed = [], gaincore._array_arc_columns

    def spy(n, k, runs, arcs):
        taken.append(([run.shape[1] for run in runs], len(arcs), keyed(n, k, runs, arcs)))
        return taken[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaincore, "_array_arc_columns", spy)
        if route != "default":
            mp.setattr(gaincore, "_ARRAY_PARSE_EDGES", 0 if route == "array" else math.inf)
        try:
            result = gs.parse_gg(text)
        except gs.ValidationError as exc:
            result = str(exc)
    return result, any(built for *_, built in taken), taken[0][:2] if taken else None


def _token(k, t, rng):
    """A gain token for exponent t: at k = 4 an alias or, where the alias
    does not read otherwise, the exponent itself."""
    if k != 4:
        return str(t)
    return rng.choice({0: ("1", "0"), 1: ("i",), 2: ("-1", "2"), 3: ("-i", "3")}[t])


def gg_text(rng, n, k, arcs, bad=None, tidy=False):
    """A .gg text of (u, v, t) arcs, rewritten unless ``tidy``: each edge
    maybe reversed (gain conjugated), lines shuffled, fields spread by tabs
    and spaces, vertex fields zero-padded, CRLF line ends, comments; ``bad``
    is one more raw e line, put among the others."""
    def pad(x):
        return "0" * rng.choice((0, 0, 1, 3)) + str(x)

    def line(u, v, t):
        if rng.random() < 0.5:
            u, v, t = v, u, -t % k
        gap = rng.choice((" ", "\t", "  ", " \t "))
        comment = rng.choice(("", "", " # c", "\t#x y z"))
        return rng.choice(("", " ", "\t")) + gap.join(("e", pad(u), pad(v), _token(k, t, rng))) + comment

    if tidy:
        lines = [f"e {u} {v} {_token(k, t, rng)}" for u, v, t in arcs]
    else:
        lines = [line(*arc) for arc in arcs]
        rng.shuffle(lines)
    if bad is not None:
        lines.insert(rng.randint(0, len(lines)), bad)
    end = "\n" if tidy else rng.choice(("\n", "\r\n"))
    return end.join([f"gg {k}", f"n {n}", *lines]) + end


def random_arcs(rng, n, k, m):
    pairs = rng.sample([(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)], m)
    return [(u, v, rng.randrange(k)) for u, v in pairs]


def bad_lines(rng, n, k, arcs):
    """One bad e line for each fault the exact route names."""
    u, v, t = rng.choice(arcs)
    return [
        f"e {u} {v} {t}", f"e {v} {u} {-t % k}",  # a repeated pair, either way round
        "e 2 2 0", f"e 0 {n} 0", f"e 1 {n + 1} 0", f"e {n} 99999999999999999999 0",  # loop, range, past int64
        f"e 1 2 {k}" if k != 4 else "e 1 2 4", "e 1 -2 0", "e 1 2 x",
    ]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8), st.integers(0, 100))
def test_array_and_exact_parse_routes_agree(seed, k, m):
    rng = random.Random(seed)
    n = next(n for n in range(2, 20) if n * (n - 1) // 2 >= m)
    arcs = random_arcs(rng, n, k, m)
    want = gs.build_gain_graph(n, gs.GainGroup(k), arcs)
    for text, canonical in ((gg_text(rng, n, k, arcs, tidy=True), True), (gs.format_gg(want), True), (gg_text(rng, n, k, arcs), False)):
        (array, took, runs), (exact, _, _), (default, by_default, _) = (parse_by(text, r) for r in ("array", "exact", "default"))
        assert array == exact == default == (want, ())
        if canonical:  # one run of all m lines
            assert took == (runs == ([m], 0)) == bool(m) and by_default == (m >= gaincore._ARRAY_PARSE_EDGES)
    if m:
        for bad in bad_lines(rng, n, k, arcs):
            text = gg_text(rng, n, k, arcs, bad)
            (array, took, _), (exact, _, _), (default, _, _) = (parse_by(text, r) for r in ("array", "exact", "default"))
            assert array == exact == default
            assert isinstance(exact, str) and not took


@pytest.mark.parametrize("k", range(1, 9))
def test_array_parse_takes_keys_up_to_the_int64_bound(k):
    # The largest n whose keys, below (n + 1)^2 * k, fit int64, and the next.
    w = math.isqrt((2**63 - 1) // k)
    assert w * w * k < 2**63 <= (w + 1) ** 2 * k
    rng = random.Random(k)
    for n, fits in ((w - 1, True), (w, False)):
        top = [n, n - 1, n - 2, 1, 2, 3]
        arcs = [(u, v, rng.randrange(k)) for u, v in itertools.combinations(top, 2)] * 4
        arcs = list({(min(u, v), max(u, v)): (u, v, t) for u, v, t in arcs}.values())
        text = gg_text(rng, n, k, arcs, tidy=True)  # one canonical run, read in bulk
        (array, took, runs), (exact, _, _) = parse_by(text, "array"), parse_by(text, "exact")
        assert array == exact == (gs.build_gain_graph(n, gs.GainGroup(k), arcs), ())
        assert took == fits and runs == ([len(arcs)], 0)
    past = "99999999999999999999"  # 20 digits: the loop reads its line, the run holds the other
    for n, want in ((5, f"edge (1,{past}) out of range 1..5"), (int(past), None)):
        text = f"gg {k}\nn {n}\ne 1 2 0\ne 1 {past} 0\n"
        (array, took, runs), (exact, _, _) = parse_by(text, "array"), parse_by(text, "exact")
        assert array == exact and not took and runs == ([1], 1)
        assert exact == want if want else exact[0].graph.heads == (2, int(past))


def _perturbed(rng, kind, k):
    """A text of 64 to 150 ``e`` lines as ``format_gg`` writes them, with one
    perturbation of ``kind`` at a random line; and whether it is valid."""
    n, mixed = 30, k == 4 and rng.random() < 0.5
    arcs = [(u, v, rng.choice(gs.MIXED_EXPONENTS) if mixed else t) for u, v, t in random_arcs(rng, n, k, rng.randint(64, 150))]
    header, count, *body = gs.format_gg(gs.build_gain_graph(n, gs.GainGroup(k), arcs, mixed)).splitlines(keepends=True)
    i = rng.randrange(len(body))
    _, u, v, t = body[i].split()
    valid = kind not in ("bad field", "past int64", "e line before header", "repeated pair")
    if kind == "bad field":
        parts = ["e", u, v, t]
        field, bad = rng.choice(((1, "1_0"), (2, "-3"), (1, "١"), (3, "x"), (3, "w^1"), (3, "+1")))
        parts[field] = bad
        body[i] = " ".join(parts) + "\n"
    elif kind == "comment":
        body[i] = rng.choice((body[i][:-1] + " # note\n", "# a comment line\n" + body[i]))
    elif kind == "tab":
        body[i] = body[i].replace(" ", "\t", rng.randint(1, 3))
    elif kind == "crlf":
        body[i] = body[i][:-1] + "\r\n"
    elif kind == "form feed":
        body[i] = body[i][:-1] + rng.choice(("\x0c", "\x0c\n", " \x0c\n"))
    elif kind == "past int64":
        body[i] = f"e {u} {rng.choice(('9223372036854775808', '99999999999999999999'))} {t}\n"
    elif kind == "leading zeros":  # at k = 4 a zero-padded exponent, which no alias reads
        gain = "0" * rng.randint(1, 3) + (rng.choice("013") if k == 4 else t)
        body[i] = rng.choice((f"e 00{u} {v} {t}\n", f"e {u} {v} {gain}\n"))
    elif kind == "e line before header":  # one e line above it, or all of them
        header, body = (body.pop(i) + header, body) if rng.random() < 0.5 else ("", body + [header])
    elif kind == "repeated pair":
        x = gaincore._MIXED_TOKEN[t] if k == 4 else int(t)
        body.insert(i, rng.choice((body[i], f"e {v} {u} {_token(k, -x % k, rng)}\n")))
    elif kind == "trailing f lines":
        body += [f"f {u} {v} 1\n", "f 2 3\n"]
    return header + count + "".join(body), valid


PERTURBATIONS = (
    "bad field", "comment", "tab", "crlf", "form feed", "past int64", "leading zeros",
    "e line before header", "repeated pair", "trailing f lines",
)


@pytest.mark.parametrize("kind", PERTURBATIONS)
def test_bulk_run_with_one_perturbation_reads_as_the_plain_loop(kind):
    """A run of canonical e lines with one perturbation parses, by default,
    to the graph and faces, or the message, that the line loop gives over
    the whole text (the exact route); the array keying builds only valid
    graphs, and builds some where a run of ``_ARRAY_PARSE_EDGES`` canonical
    lines is left."""
    rng = random.Random(kind)
    built = 0
    for j in range(24):
        text, valid = _perturbed(rng, kind, (4, 6, 2, 4, 7, 1)[j % 6])
        (default, took, _), (plain, _, _) = parse_by(text, "default"), parse_by(text, "exact")
        assert default == plain, (kind, text)
        assert isinstance(plain, str) != valid, plain
        built += took
    assert built >= 4 if valid else built == 0, built


def _marked(rng, k, mark):
    """A format_gg text of 128 to 160 edges with one mark: a comment, a tab
    or CRLF on its first e line, or a comment line halfway through its e
    lines (``middle``) or after the tenth (``early``); the graph, the text,
    and the line counts of the runs the default reader should read in bulk
    and how many e lines the loop should read."""
    n = 30
    g = gs.build_gain_graph(n, gs.GainGroup(k), random_arcs(rng, n, k, rng.randint(128, 160)))
    header, count, *body = gs.format_gg(g).splitlines(keepends=True)
    m = g.graph.m
    if mark == "middle":
        body.insert(m // 2, "# middle\n")
        return g, header + count + "".join(body), ([m // 2, m - m // 2], 0)
    if mark == "early":  # the 10 lines above it are too few for a bulk run
        body.insert(10, "# early\n")
        return g, header + count + "".join(body), ([m - 10], 10)
    body[0] = {"comment": body[0][:-1] + " # first edge\n", "tab": body[0].replace(" ", "\t", 1), "crlf": body[0][:-1] + "\r\n"}[mark]
    return g, header + count + "".join(body), ([m - 1], 1)


@pytest.mark.parametrize("mark", ("comment", "tab", "crlf", "middle", "early"))
def test_every_canonical_run_is_read_in_bulk(mark):
    """A run of canonical e lines is read in bulk wherever it starts: after
    a first e line with a comment, a tab or CRLF, on both sides of a comment
    line, and after a run too short for it; the graph is the one written."""
    rng = random.Random(mark)
    for k in (4, 6, 1, 4, 2, 8):
        g, text, runs = _marked(rng, k, mark)
        assert parse_by(text, "default") == ((g, ()), True, runs)
        assert parse_by(text, "exact")[0] == (g, ())


def test_refused_bulk_text_names_the_first_bad_edge_in_file_order():
    """When the array keying refuses a text read partly in bulk, the
    per-entry check sees every e line in file order: a repeat of a run-1
    pair early in run 2 is named, not a repeat later in run 2 of a run-2
    pair, as the line loop alone names it."""
    rng = random.Random(30)
    for k in (4, 6):
        _, text, _ = _marked(rng, k, "middle")
        lines = text.splitlines(keepends=True)
        middle = lines.index("# middle\n")
        first, second = lines[2], lines[middle + 1]
        lines[middle + 1 : middle + 1] = [first]
        lines.append(second)
        text = "".join(lines)
        u, v = sorted(map(int, first.split()[1:3]))
        want = f"both orientations (or a repeat) given for pair ({u}, {v})"
        assert parse_by(text, "default") == (want, False, ([middle - 2, len(lines) - middle - 1], 0))
        assert parse_by(text, "exact")[0] == want
