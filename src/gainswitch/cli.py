"""Command-line interface.

Subcommands operate on ``.gg`` files and print a JSON report to stdout.
Exit codes: 0 = computed (affirmative where a verdict exists), 1 = negative
verdict, 2 = validation or parse error, 3 = instance too large for the
configured caps.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import census as census_mod
from . import spectral, switching, symmetry
from .errors import GainGraphError, InstanceTooLargeError, ValidationError
from .gaincore import GainGraph, load_gg, save_gg, underlying

_SIG_DIGITS = 12


def _round(x: float) -> float:
    """x to 12 significant digits: ``spectrum``'s floats, the only floats in a report."""
    return float(f"{x:.{_SIG_DIGITS}g}")


def _theta_table(theta) -> dict[str, str]:
    """theta's label per vertex; each distinct exponent is labelled once."""
    labels = {t: theta.group.element(t).label() for t in set(theta.exps)}
    return dict(zip(map(str, range(1, theta.n + 1)), map(labels.__getitem__, theta.exps)))


def _load(path: str) -> tuple[GainGraph, tuple]:
    try:
        return load_gg(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


# Each command returns (result, diagnostics, exit code); ``main`` wraps them in the report.
def cmd_equiv(args) -> tuple[dict, list[str], int]:
    a, _ = _load(args.file_a)
    b, _ = _load(args.file_b)
    verdict = switching.switching_equivalent(a, b)
    if verdict is None:
        cycle, ga, gb = switching.first_profile_difference(a, b)
        result = {
            "equivalent": False,
            "first_difference": {"cycle": list(cycle), "gain_a": ga.label(), "gain_b": gb.label()},
        }
        return result, [], 1
    return {"equivalent": True, "theta": _theta_table(verdict)}, [], 0


def cmd_spectrum(args) -> tuple[dict, list[str], int]:
    spectral._check_tol(args.tol)  # before any file is read
    g, _ = _load(args.file)
    eigs = list(spectral.spectrum(g, args.tol).eigenvalues)
    result = {"eigenvalues": list(map(_round, eigs))}
    try:
        poly = spectral.char_poly_elementary(g, args.max_enum)
    except InstanceTooLargeError as exc:
        result["tol"] = _round(args.tol)
        return result, [f"characteristic polynomial skipped: {exc}"], 3
    from_eigs = [float(c) for c in np.poly(eigs)] if eigs else [1.0]
    coeffs = list(poly.all_coefficients())
    result["coefficients"] = list(map(_round, coeffs))
    result["coefficients_from_eigenvalues"] = list(map(_round, from_eigs))
    result["max_discrepancy"] = _round(max(abs(x - y) for x, y in zip(coeffs, from_eigs)))
    result["tol"] = _round(args.tol)
    return result, [], 0


# The census cross-checks in report order: each compares two answers, recorded
# as (method, quantity), and is made when both methods gave that quantity.
_CROSS_CHECKS = (
    ("sizes_sum_to_total", ("brute", "sizes_sum"), ("brute", "total")),
    ("brute_vs_cycle_sizes", ("brute", "sizes"), ("cycle", "sizes")),
    ("brute_vs_blocks", ("brute", "input_class_size"), ("blocks", "input_class_size")),
    ("brute_count_vs_plane_count", ("brute", "class_count"), ("plane", "class_count")),
    ("brute_vs_plane_size", ("brute", "input_class_size"), ("plane", "input_class_size")),
    ("blocks_vs_plane_size", ("blocks", "input_class_size"), ("plane", "input_class_size")),
)


def cmd_census(args) -> tuple[dict, list[str], int]:
    g, faces = _load(args.file)
    graph = g.graph
    lower, upper, tight = census_mod.class_count_bounds(graph)
    result: dict = {"bounds": {"lower": lower, "upper": upper, "upper_tight": tight}}
    diagnostics: list[str] = []
    answered: dict[str, dict] = {}  # each method that answers: its quantities

    if graph.m > args.max_enum:
        diagnostics.append(f"brute-force census skipped: {graph.m} edges exceed the cap {args.max_enum}")
    else:
        try:
            brute = census_mod.brute_force_census(graph, args.max_enum)
        except InstanceTooLargeError as exc:  # a rank above the tally's cap
            diagnostics.append(f"brute-force census skipped: {exc}")
        else:
            weights = brute.weights
            sizes = sorted(weights[weights != 0].tolist(), reverse=True)
            entry: dict = {"class_count": brute.num_classes, "sizes": sizes, "total": brute.total}
            if g.mixed_mode:
                entry["input_class_size"] = brute.size_of(census_mod.mixed_basis_profile(g))
            result["brute_force"] = entry
            answered["brute"] = {**entry, "sizes_sum": sum(sizes)}

    is_cycle = (
        graph.n >= 3
        and graph.m == graph.n
        and graph.num_components == 1
        and all(graph.degree(v) == 2 for v in range(1, graph.n + 1))
    )
    if is_cycle:
        alpha = census_mod.alpha_closed_form(graph.n)
        cycle = result["cycle_class_sizes"] = {"1": alpha.one, "-1": alpha.minus_one, "i": alpha.i, "-i": alpha.minus_i}
        answered["cycle"] = {"sizes": sorted(cycle.values(), reverse=True)}

    if g.mixed_mode:
        try:
            size = census_mod.class_size_by_blocks(g)
        except InstanceTooLargeError as exc:  # a block's rank above the convolution's cap
            diagnostics.append(f"block product skipped: {exc}")
        else:
            result["block_product_size"] = size
            result["cactus"] = census_mod.is_cactus(graph)
            answered["blocks"] = {"input_class_size": size}

    if args.faces:
        if not faces:
            raise ValidationError("--faces given but the file has no f lines")
        fs = census_mod.parse_face_structure(g, faces)
        try:
            plane: dict = {"class_count": census_mod.plane_class_count(graph, fs)}
            if g.mixed_mode:
                plane["input_class_size"] = census_mod.plane_class_size(g, fs)
        except InstanceTooLargeError as exc:  # more faces than the convolution's cap
            diagnostics.append(f"plane census skipped: {exc}")
        else:
            result["plane"] = answered["plane"] = plane

    found = {(method, key): value for method, quantities in answered.items() for key, value in quantities.items()}
    checks = {name: found[a] == found[b] for name, a, b in _CROSS_CHECKS if a in found and b in found}
    if checks:
        result["cross_checks"] = checks
    if not answered:
        return result, diagnostics + ["no census method applies under the configured caps"], 3
    return result, diagnostics, 0


def cmd_classify(args) -> tuple[dict, list[str], int]:
    spectral._check_tol(args.tol)  # before any file is read
    g, _ = _load(args.file)
    character = switching.gain_character(g)
    result = {
        "balanced": character == switching.BALANCED,
        "negative": character == switching.NEGATIVE,
        "imaginary": character == switching.IMAGINARY,
        "character": character,
        "equivalent_to_negation": switching.equivalent_to_negation(g),
        "cactus": census_mod.is_cactus(g.graph),
        "mixed": g.mixed_mode,
    }
    diagnostics: list[str] = []
    if g.mixed_mode:
        try:
            spectral_balance = spectral.is_balanced_spectrally(g, max(args.tol, 1e-8))
        except InstanceTooLargeError as exc:  # past the spectrum cap
            diagnostics.append(f"spectral balance cross-check skipped: {exc}")
        else:
            result["spectral_balance"] = spectral_balance
            result["spectral_balance_agrees"] = spectral_balance == result["balanced"]
    return result, diagnostics, 0


def cmd_iso(args) -> tuple[dict, list[str], int]:
    a, _ = _load(args.file_a)
    b, _ = _load(args.file_b)
    if a.group != b.group:
        raise ValidationError("gain group mismatch")
    relabeling = None
    if a.graph != b.graph:
        sigma = symmetry.underlying_isomorphism(a.graph, b.graph, args.max_aut)
        if sigma is None:
            return {"isomorphic": False, "reason": "underlying graphs are not isomorphic"}, [], 1
        exps = [b.exponent(sigma(u), sigma(v)) for u, v in zip(a.graph.tails, a.graph.heads)]
        b = GainGraph(a.graph, b.group, exps, b.mixed_mode)
        relabeling = list(sigma.image)
    hit = symmetry.switching_isomorphic(a, b, args.max_aut)
    if hit is None:
        return {"isomorphic": False, "relabeling": relabeling}, [], 1
    f, theta = hit
    return {
        "isomorphic": True,
        "relabeling": relabeling,
        "permutation": list(f.image),
        "theta": _theta_table(theta),
    }, [], 0


def cmd_product(args) -> tuple[dict, list[str], int]:
    a, _ = _load(args.file_a)
    b, _ = _load(args.file_b)
    prod = spectral.cartesian_product(a, b)
    try:
        save_gg(prod, args.output)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.output}: {exc}") from None
    result = {
        "n": prod.graph.n,
        "m": prod.graph.m,
        "k": prod.group.order,
        "mixed": prod.mixed_mode,
        "output": args.output,
    }
    return result, [], 0


def cmd_aut(args) -> tuple[dict, list[str], int]:
    g, _ = _load(args.file)
    under, *parts, gain = symmetry._aut_chains(g, args.max_aut)
    result = {
        "underlying_order": under.order,
        "underlying_generators": [list(p.image) for p in under.generators],
        "gain_order": gain.order,
        "gain_generators": [list(p.image) for p in gain.generators],
    }
    if parts:
        result["directed_part_order"], result["undirected_part_order"] = (c.order for c in parts)
    return result, [], 0


def _cap(text: str) -> int:
    """A cap option's value: an integer, at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainswitch",
        description="Switching equivalence, spectra, and class censuses of gain graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *files: str) -> argparse.ArgumentParser:
        """A subcommand taking these files and --json-pretty; each adds the options its handler reads."""
        p = sub.add_parser(name, help=summary)
        for file in files:
            p.add_argument(file)
        p.add_argument("--json-pretty", action="store_true", help="indent the JSON report")
        p.set_defaults(func=func)
        return p

    def cap(p: argparse.ArgumentParser, flag: str, default: int, what: str) -> None:
        p.add_argument(flag, type=_cap, default=default, help=f"cap on {what} (default %(default)s)")

    def tol(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance (default 1e-9)")

    command("equiv", cmd_equiv, "decide switching equivalence of two files", "file_a", "file_b")

    p = command("spectrum", cmd_spectrum, "eigenvalues and characteristic polynomial", "file")
    tol(p)
    cap(p, "--max-enum", spectral.DEFAULT_ELEMENTARY_CAP, "the vertices of the elementary expansion")

    p = command("census", cmd_census, "count and size the switching classes", "file")
    cap(p, "--max-enum", census_mod.DEFAULT_CENSUS_CAP, "the edges of the 3^m scan")
    p.add_argument("--faces", action="store_true", help="use the file's f lines for plane formulas")

    tol(command("classify", cmd_classify, "balance / character / negation verdicts", "file"))

    p = command("iso", cmd_iso, "decide switching isomorphism of two files", "file_a", "file_b")
    cap(p, "--max-aut", symmetry.DEFAULT_AUT_CAP, "the vertices of the automorphism search")

    p = command("product", cmd_product, "Cartesian product of two files", "file_a", "file_b")
    p.add_argument("-o", "--output", required=True, help="path for the product .gg file")

    p = command("aut", cmd_aut, "automorphism groups", "file")
    cap(p, "--max-aut", symmetry.DEFAULT_AUT_CAP, "the vertices of the automorphism search")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use (not at import) and reused by every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    inputs = [getattr(args, name) for name in ("file", "file_a", "file_b") if hasattr(args, name)]
    try:
        result, diagnostics, code = args.func(args)
    except GainGraphError as exc:
        result, diagnostics = {}, [f"error: {exc}"]
        code = 3 if isinstance(exc, InstanceTooLargeError) else 2
    report = {"command": args.command, "inputs": inputs, "result": result, "diagnostics": diagnostics}
    print(json.dumps(report, indent=2 if args.json_pretty else None))
    return code


if __name__ == "__main__":
    sys.exit(main())
