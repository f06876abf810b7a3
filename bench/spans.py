"""Spans around the public functions of gainswitch's layer modules.

The benchmark measures each layer from outside the program.  While tracing
is on, every public function of a layer module is replaced by a wrapper, so
each call that resolves through the module attribute is seen: the calls the
benchmark makes, and the calls the CLI makes, since it reaches its sibling
modules as ``spectral.spectrum`` and so on.  Calls a module makes through
names it imported from another module stay untraced and count as the
caller's time.

A call that enters a layer from outside it (from the benchmark or from
another layer) is a span: name, start, end, enclosing span and operation
id.  Calls nested inside the same layer are not spans; they are only
counted and timed per function, which keeps the per-cycle helpers from
filling memory.  Nothing is recorded outside an operation, so set-up and
the correctness checks stay untraced.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from collections import Counter, defaultdict

# Every duration of the benchmark is CPU time of the process, all its threads
# included.  The work is CPU-bound, so this is its latency on a machine of its
# own; on a shared virtual machine wall time also counts the time the host
# hands the CPU to others (steal), which measured up to 40% of wall time and
# would otherwise dominate the run-to-run spread.  The metrics scale it to a
# reference speed of the host (see speed).
CLOCK = time.process_time

LAYERS = ("gaincore", "switching", "spectral", "census", "symmetry", "cli")

CLI_COMMANDS = ("equiv", "spectrum", "census", "classify", "iso", "product", "aut")

# Per-layer metrics: name -> unit.  Everything but the p50 figures and the
# overhead ratio is a total over the timed phase divided by the operations.
PER_LAYER_UNITS = {
    "spectral.busy_ms": "ms/op",
    "spectral.spectrum.calls": "count/op",
    "spectral.spectrum.p50_ms": "ms",
    "spectral.matrix_dim_sum": "count/op",
    "spectral.charpoly.busy_ms": "ms/op",
    "spectral.failed": "count/op",
    "census.busy_ms": "ms/op",
    "census.brute.busy_ms": "ms/op",
    "census.brute.orientations": "count/op",
    "census.blocks.busy_ms": "ms/op",
    "census.plane.busy_ms": "ms/op",
    "census.failed": "count/op",
    "gaincore.busy_ms": "ms/op",
    "gaincore.parse_ms": "ms/op",
    "gaincore.edges_built": "count/op",
    "switching.busy_ms": "ms/op",
    "switching.calls": "count/op",
    "switching.edges_scanned": "count/op",
    "switching.basis_cycles": "count/op",
    "symmetry.busy_ms": "ms/op",
    "symmetry.calls": "count/op",
    "symmetry.group_order_sum": "count/op",
    **{f"cli.{cmd}.p50_ms": "ms" for cmd in CLI_COMMANDS},
    "cli.exit_mismatch": "count/op",
    "bench.self_ms": "ms/op",
    "bench.trace_overhead": "ratio",
}


def _public_names(module) -> list[str]:
    """``__all__``, or for a module without one (the CLI) its own public functions."""
    names = getattr(module, "__all__", None)
    if names is not None:
        return list(names)
    return [name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


def _edge_count(obj) -> int:
    """Edges of a GainGraph or SimpleGraph argument, 0 for anything else."""
    graph = getattr(obj, "graph", obj)
    edges = getattr(graph, "edges", None)
    return len(edges) if isinstance(edges, tuple) else 0


class Tracer:
    """In-memory spans and per-function counters for one benchmark run."""

    def __init__(self) -> None:
        # Each span is [name, layer, start, end, parent span index, op id, ok].
        self.spans: list[list] = []
        self.open: list[int] = []  # indices of the spans enclosing the current call
        self.op: int | None = None
        self.calls: Counter = Counter()  # every traced call, boundary or nested
        self.inclusive: defaultdict = defaultdict(float)  # seconds per function
        self.work: Counter = Counter()
        self.spectrum_s: list[float] = []
        self.cli_s: defaultdict = defaultdict(list)  # subcommand -> seconds per cli.main call
        self._restore: list[tuple] = []

    # -- operations -------------------------------------------------------
    def begin_op(self, op_id: int, kind: str) -> None:
        self.op = op_id
        self.open.append(len(self.spans))
        self.spans.append([f"op.{kind}", "bench", CLOCK(), 0.0, -1, op_id, True])

    def end_op(self, ok: bool) -> None:
        span = self.spans[self.open.pop()]
        span[3] = CLOCK()
        span[6] = ok
        self.op = None

    # -- patching ---------------------------------------------------------
    def install(self, package) -> None:
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr in _public_names(module):
                fn = getattr(module, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                self._restore.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            spans, open_ = tracer.spans, tracer.open
            boundary = spans[open_[-1]][1] != layer
            if boundary:
                idx = len(spans)
                span = [name, layer, 0.0, 0.0, open_[-1], tracer.op, False]
                spans.append(span)
                open_.append(idx)
            start = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = CLOCK()
                if boundary:
                    open_.pop()
                    span[2], span[3] = start, end
                tracer.calls[name] += 1
                tracer.inclusive[name] += end - start
            if boundary:
                span[6] = True
            tracer._count(name, layer, boundary, args, result, end - start)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count(self, name, layer, boundary, args, result, seconds) -> None:
        work = self.work
        if name == "spectral.spectrum":
            work["spectral.matrix_dim_sum"] += args[0].graph.n
            self.spectrum_s.append(seconds)
        elif name == "census.brute_force_census":
            work["census.brute.orientations"] += 3 ** args[0].m
        elif name == "switching.fundamental_cycles":
            work["switching.basis_cycles"] += len(result)
        elif name == "symmetry.automorphisms":
            work["symmetry.group_order_sum"] += result.order
        elif name == "cli.main":
            self.cli_s[args[0][0]].append(seconds)
        if not boundary:
            return
        if layer == "gaincore":
            built = result[0] if isinstance(result, tuple) and result else result
            work["gaincore.edges_built"] += _edge_count(built) if hasattr(built, "gains") else 0
        elif layer == "switching":
            work["switching.calls"] += 1
            work["switching.edges_scanned"] += sum(_edge_count(a) for a in args)
        elif layer == "symmetry":
            work["symmetry.calls"] += 1

    # -- results ----------------------------------------------------------
    def busy_seconds(self) -> dict[str, float]:
        """Self time per layer: span durations minus their child spans."""
        child = defaultdict(float)
        for name, layer, start, end, parent, op, ok in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = defaultdict(float)
        for idx, (name, layer, start, end, parent, op, ok) in enumerate(self.spans):
            busy[layer] += (end - start) - child[idx]
        return busy

    def failed_boundary_calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s[1] == layer and not s[6])

    def write(self, path) -> None:
        """One JSON line per span, in start order; times are CPU seconds of the process."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, op, ok in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "ok": ok}) + "\n")


def per_layer_metrics(tracer: Tracer, ops: int, exit_mismatches: int,
                      overhead: float, scale: float) -> dict[str, dict]:
    """Derive the per-layer metrics of one traced run; ``scale`` turns the
    spans' CPU seconds into reference seconds (see ``speed``)."""
    busy = tracer.busy_seconds()
    incl = tracer.inclusive
    work = tracer.work
    per_op = 1.0 / ops

    def ms(seconds: float) -> float:
        return seconds * scale * 1e3 * per_op

    def p50_ms(samples) -> float:
        return statistics.median(samples) * scale * 1e3 if samples else 0.0

    values = {
        "spectral.busy_ms": ms(busy["spectral"]),
        "spectral.spectrum.calls": tracer.calls["spectral.spectrum"] * per_op,
        "spectral.spectrum.p50_ms": p50_ms(tracer.spectrum_s),
        "spectral.matrix_dim_sum": work["spectral.matrix_dim_sum"] * per_op,
        "spectral.charpoly.busy_ms": ms(incl["spectral.char_poly_elementary"]
                                        + incl["spectral.determinant"]),
        "spectral.failed": tracer.failed_boundary_calls("spectral") * per_op,
        "census.busy_ms": ms(busy["census"]),
        "census.brute.busy_ms": ms(incl["census.brute_force_census"]),
        "census.brute.orientations": work["census.brute.orientations"] * per_op,
        "census.blocks.busy_ms": ms(incl["census.class_size_by_blocks"]),
        "census.plane.busy_ms": ms(incl["census.parse_face_structure"]
                                   + incl["census.plane_class_count"]
                                   + incl["census.plane_class_size"]),
        "census.failed": tracer.failed_boundary_calls("census") * per_op,
        "gaincore.busy_ms": ms(busy["gaincore"]),
        "gaincore.parse_ms": ms(incl["gaincore.parse_gg"]),
        "gaincore.edges_built": work["gaincore.edges_built"] * per_op,
        "switching.busy_ms": ms(busy["switching"]),
        "switching.calls": work["switching.calls"] * per_op,
        "switching.edges_scanned": work["switching.edges_scanned"] * per_op,
        "switching.basis_cycles": work["switching.basis_cycles"] * per_op,
        "symmetry.busy_ms": ms(busy["symmetry"]),
        "symmetry.calls": work["symmetry.calls"] * per_op,
        "symmetry.group_order_sum": work["symmetry.group_order_sum"] * per_op,
        **{f"cli.{cmd}.p50_ms": p50_ms(tracer.cli_s[cmd]) for cmd in CLI_COMMANDS},
        "cli.exit_mismatch": exit_mismatches * per_op,
        "bench.self_ms": ms(busy["bench"]),  # inside operations, outside every layer
        "bench.trace_overhead": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
