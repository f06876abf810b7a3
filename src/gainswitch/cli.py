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
import math
import sys

import numpy as np

from . import census as census_mod
from . import spectral, switching, symmetry
from .errors import GainGraphError, InstanceTooLargeError, ValidationError
from .gaincore import GainGraph, load_gg, save_gg, underlying

_SIG_DIGITS = 12


def _rounded(obj):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{_SIG_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _theta_table(theta) -> dict[str, str]:
    return {str(v): theta(v).label() for v in range(1, theta.n + 1)}


def _load(path: str) -> tuple[GainGraph, tuple]:
    try:
        return load_gg(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def cmd_equiv(args) -> tuple[dict, int]:
    a, _ = _load(args.file_a)
    b, _ = _load(args.file_b)
    verdict = switching.switching_equivalent(a, b)
    if verdict is switching.DIFFERENT_GRAPH:
        raise ValidationError("different underlying graph (or gain group); equivalence undefined")
    if verdict is None:
        cycle, ga, gb = switching.first_profile_difference(a, b)
        result = {
            "equivalent": False,
            "first_difference": {"cycle": list(cycle), "gain_a": ga.label(), "gain_b": gb.label()},
        }
        return result, 1
    return {"equivalent": True, "theta": _theta_table(verdict)}, 0


def cmd_spectrum(args) -> tuple[dict, int]:
    g, _ = _load(args.file)
    eigs = list(spectral.spectrum(g, args.tol).eigenvalues)
    cap = args.max_enum if args.max_enum is not None else spectral.DEFAULT_ELEMENTARY_CAP
    try:
        poly = spectral.char_poly_elementary(g, cap)
    except InstanceTooLargeError as exc:
        result = {"eigenvalues": eigs, "tol": args.tol}
        return {
            "result": result,
            "diagnostics": [f"characteristic polynomial skipped: {exc}"],
        }, 3
    from_eigs = [float(c) for c in np.poly(eigs)] if eigs else [1.0]
    coeffs = list(poly.all_coefficients())
    max_disc = max(abs(x - y) for x, y in zip(coeffs, from_eigs))
    result = {
        "eigenvalues": eigs,
        "coefficients": coeffs,
        "coefficients_from_eigenvalues": from_eigs,
        "max_discrepancy": max_disc,
        "tol": args.tol,
    }
    return result, 0


def cmd_census(args) -> tuple[dict, int]:
    g, faces = _load(args.file)
    graph = g.graph
    lower, upper, tight = census_mod.class_count_bounds(graph)
    result: dict = {"bounds": {"lower": lower, "upper": upper, "upper_tight": tight}}
    diagnostics: list[str] = []
    methods = 0

    cap = args.max_enum if args.max_enum is not None else census_mod.DEFAULT_CENSUS_CAP
    brute = None
    if graph.m <= cap:
        brute = census_mod.brute_force_census(graph, cap)
        entry: dict = {
            "class_count": brute.num_classes,
            "sizes": sorted((size for _, size in brute.classes), reverse=True),
            "total": brute.total,
        }
        if g.mixed_mode:
            profile = census_mod.mixed_basis_profile(g)
            entry["input_class_size"] = brute.size_of(profile)
        result["brute_force"] = entry
        methods += 1
    else:
        diagnostics.append(f"brute-force census skipped: {graph.m} edges exceed the cap {cap}")

    is_cycle = (
        graph.n >= 3
        and graph.m == graph.n
        and graph.num_components == 1
        and all(graph.degree(v) == 2 for v in range(1, graph.n + 1))
    )
    if is_cycle:
        alpha = census_mod.alpha_closed_form(graph.n)
        result["cycle_class_sizes"] = {
            "1": alpha.one,
            "-1": alpha.minus_one,
            "i": alpha.i,
            "-i": alpha.minus_i,
        }
        methods += 1

    if g.mixed_mode:
        try:
            result["block_product_size"] = census_mod.class_size_by_blocks(g, cap)
        except InstanceTooLargeError:
            pass  # a block above the caps: the block product does not apply
        else:
            result["cactus"] = census_mod.is_cactus(graph)
            methods += 1

    if args.faces:
        if not faces:
            raise ValidationError("--faces given but the file has no f lines")
        fs = census_mod.parse_face_structure(g, faces)
        face_cap = args.max_enum if args.max_enum is not None else census_mod.DEFAULT_FACE_CAP
        # One face-cell convolution gives both: the count of nonzero entries
        # (plane_class_count) and the entry at the input's face gains (plane_class_size).
        weights = census_mod._face_weights(fs, face_cap)
        plane: dict = {"class_count": int(np.count_nonzero(weights))}
        if g.mixed_mode:
            y = tuple(x.exp for x in census_mod.face_gains(g, fs))
            plane["input_class_size"] = int(weights[y])
        result["plane"] = plane
        methods += 1

    checks: dict = {}
    if brute is not None:
        checks["sizes_sum_to_total"] = sum(s for _, s in brute.classes) == brute.total
        if "block_product_size" in result and g.mixed_mode:
            checks["brute_vs_blocks"] = (
                result["block_product_size"] == result["brute_force"]["input_class_size"]
            )
        if "plane" in result:
            checks["brute_count_vs_plane_count"] = (
                result["plane"]["class_count"] == brute.num_classes
            )
            if g.mixed_mode:
                checks["brute_vs_plane_size"] = (
                    result["plane"]["input_class_size"] == result["brute_force"]["input_class_size"]
                )
    if checks:
        result["cross_checks"] = checks

    if methods == 0:
        return {
            "result": result,
            "diagnostics": diagnostics + ["no census method applies under the configured caps"],
        }, 3
    return {"result": result, "diagnostics": diagnostics}, 0


def cmd_classify(args) -> tuple[dict, int]:
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
    if g.mixed_mode:
        spectral_balance = spectral.is_balanced_spectrally(g, max(args.tol, 1e-8))
        result["spectral_balance"] = spectral_balance
        result["spectral_balance_agrees"] = spectral_balance == result["balanced"]
    return result, 0


def cmd_iso(args) -> tuple[dict, int]:
    a, _ = _load(args.file_a)
    b, _ = _load(args.file_b)
    if a.group != b.group:
        raise ValidationError("gain group mismatch")
    max_aut = args.max_aut if args.max_aut is not None else symmetry.DEFAULT_AUT_CAP
    relabeling = None
    if a.graph != b.graph:
        sigma = symmetry.underlying_isomorphism(a.graph, b.graph, max_aut)
        if sigma is None:
            return {"isomorphic": False, "reason": "underlying graphs are not isomorphic"}, 1
        exps = [b.exponent(sigma(u), sigma(v)) for u, v in a.graph.edges]
        b = GainGraph._from_exps(a.graph, b.group, exps, b.mixed_mode)
        relabeling = list(sigma.image)
    hit = symmetry.switching_isomorphic(a, b, max_aut)
    if hit is None:
        return {"isomorphic": False, "relabeling": relabeling}, 1
    f, theta = hit
    return {
        "isomorphic": True,
        "relabeling": relabeling,
        "permutation": list(f.image),
        "theta": _theta_table(theta),
    }, 0


def cmd_product(args) -> tuple[dict, int]:
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
    return result, 0


def cmd_aut(args) -> tuple[dict, int]:
    g, _ = _load(args.file)
    max_aut = args.max_aut if args.max_aut is not None else symmetry.DEFAULT_AUT_CAP
    under, *parts, gain = symmetry._aut_chains(g, max_aut)
    result = {
        "underlying_order": under.order,
        "underlying_generators": [list(p.image) for p in under.generators],
        "gain_order": gain.order,
        "gain_generators": [list(p.image) for p in gain.generators],
    }
    if parts:
        result["directed_part_order"], result["undirected_part_order"] = (c.order for c in parts)
    return result, 0


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance (default 1e-9)")
    common.add_argument("--max-enum", type=_cap, default=None, help="override enumeration caps")
    common.add_argument("--max-aut", type=_cap, default=None, help="override the automorphism cap")
    common.add_argument("--json-pretty", action="store_true", help="indent the JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equiv", parents=[common], help="decide switching equivalence of two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("spectrum", parents=[common], help="eigenvalues and characteristic polynomial")
    p.add_argument("file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("census", parents=[common], help="count and size the switching classes")
    p.add_argument("file")
    p.add_argument("--faces", action="store_true", help="use the file's f lines for plane formulas")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("classify", parents=[common], help="balance / character / negation verdicts")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("iso", parents=[common], help="decide switching isomorphism of two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("product", parents=[common], help="Cartesian product of two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("-o", "--output", required=True, help="path for the product .gg file")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("aut", parents=[common], help="automorphism groups")
    p.add_argument("file")
    p.set_defaults(func=cmd_aut)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use (not at import) and reused by every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    inputs = [getattr(args, name) for name in ("file", "file_a", "file_b") if hasattr(args, name)]
    report = {"command": args.command, "inputs": inputs, "result": {}, "diagnostics": []}
    try:
        if not 0 < args.tol < math.inf:  # spectral.spectrum's check, made for every command
            raise ValidationError("tol must be positive and finite")
        payload, code = args.func(args)
    except InstanceTooLargeError as exc:
        report["diagnostics"] = [f"error: {exc}"]
        code = 3
    except GainGraphError as exc:
        report["diagnostics"] = [f"error: {exc}"]
        code = 2
    else:
        if "result" in payload and "diagnostics" in payload:
            report["result"] = payload["result"]
            report["diagnostics"] = payload["diagnostics"]
        else:
            report["result"] = payload
    print(json.dumps(_rounded(report), indent=2 if getattr(args, "json_pretty", False) else None))
    return code


if __name__ == "__main__":
    sys.exit(main())
