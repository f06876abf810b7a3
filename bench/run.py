"""Benchmark of the gainswitch package: one workload per run, metrics as JSON.

Run from the repository root:

    python3 bench/run.py --workload sweep_small --seed 1 --seconds 16 --trace 0

The package is imported from ``src/`` next to this directory.  One process
and one thread (BLAS threads are capped to one) run a closed loop with one
client: each operation starts when the previous one and its check have
finished.  Durations are CPU time of the process (``spans.CLOCK`` says
why); the timings of operations are scaled to a reference speed of the
host, from a fixed loop timed between operations (``speed`` says why).
Set-up (importing the package in a fresh interpreter, drawing the first
round of inputs and a warm-up on inputs outside the measured set) is
repeated and its median reported in CPU seconds.  The timed phase then draws and runs whole rounds of
the workload's schedule until ``--seconds`` of wall time have passed and at
least ``MIN_OPS`` operations were made; the first round is preceded by the
workload's probe, the fixed instances of its known defects.  Only the
operations are timed: drawing a round and checking each operation's output
happen outside the timed region, so ``ops_per_s`` is operations per second
of time spent inside operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from spans around the package's public functions, and the
spans are written to ``.bench_out/``.  A readable summary goes to standard
error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

# One thread, as the benchmark promises; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from spans import CLOCK  # noqa: E402
from speed import EDGE_BURSTS, HostSpeed  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_OPS = 100  # p90 then has at least ten samples beyond it
IMPORT_REPEATS = 9
SETUP_REPEATS = 5
HARD_LIMIT_S = 120.0  # stop starting rounds after this, whatever --seconds says

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
                 "import gainswitch, gainswitch.cli; print(time.process_time() - t)")


def fresh_import_seconds() -> float:
    """Time to import gainswitch, numpy included, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def import_package():
    """Import gainswitch from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gainswitch", "__init__.py")):
        raise SystemExit(f"error: no gainswitch package under {SRC}")
    sys.path.insert(0, SRC)
    package = importlib.import_module("gainswitch")
    for layer in ("gaincore", "switching", "spectral", "census", "symmetry", "cli"):
        importlib.import_module(f"gainswitch.{layer}")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: gainswitch imported from {package.__file__}, not {SRC}")
    return package


def clear_library_caches(package) -> None:
    """Empty every functools cache of the package, e.g. the one behind ``spectrum``.

    Call it with no tracing installed: the span wrappers hide ``cache_clear``.
    """
    for name in list(sys.modules):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            for obj in vars(sys.modules[name]).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def fingerprint(batch, digest=None):
    """Digest of generated inputs; equal digests mean identical inputs.

    With ``digest`` (a running sha256) the batch is added to it instead.
    """
    digest = digest or hashlib.sha256()
    digest.update(repr(batch).encode())
    return digest.hexdigest()[:16]


class Run:
    """Operation records of one timed phase."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.kinds: list[str] = []
        self.failures: Counter = Counter()  # (kind, exception type) -> count
        self.unexpected = 0  # failures other than known defects: wrong answers, surprise errors
        self.wall = 0.0  # length of the timed phase
        self.cpu = 0.0  # CPU time of the timed phase, checks included
        self.instances: list[dict] = []  # operations run, in order (traced runs only)
        self.rounds = 0
        self.fingerprint = ""  # digest of every round run
        self.scale = 1.0  # reference seconds per CPU second over the phase (see speed)
        self.references: list[float] = []  # reference bursts of the phase, seconds


def run_op(workload, inst, run: Run, tracer=None, check=True) -> None:
    kind = inst["kind"]
    op_id = len(run.seconds)
    if tracer is not None:
        tracer.begin_op(op_id, kind)
    error = None
    start = CLOCK()
    try:
        result = workload.op(inst)
    except Exception as exc:  # a failed operation is recorded and the loop goes on
        error = exc
    elapsed = CLOCK() - start
    if tracer is not None:
        tracer.end_op(error is None)
    run.seconds.append(elapsed)
    run.kinds.append(kind)
    if error is None and check:
        try:
            workload.check(inst, result)
        except Exception as exc:  # a disagreeing or crashing check fails the operation
            error = exc
    if error is None:
        return
    etype = type(error).__name__
    if (kind, etype) not in workload.known_defects:
        run.unexpected += 1
    if not run.failures[(kind, etype)]:
        log(f"[{workload.name}] {kind} failed with {etype}: {error}")
        if (kind, etype) not in workload.known_defects:
            log("".join(traceback.format_exception(error)[-6:]))
    run.failures[(kind, etype)] += 1


@contextlib.contextmanager
def out_of_collector():
    """Hide what is alive now (the harness's inputs above all) from the cyclic
    garbage collector, so that the collections during the operations scan only
    objects the package made, as in a process that holds nothing else."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def timed_phase(workload, seed, seconds: float, tracer=None,
                max_rounds: int | None = None) -> Run:
    run = Run()
    speed = HostSpeed()
    speed.sample(EDGE_BURSTS)
    digest = hashlib.sha256()
    start, cpu_start = time.perf_counter(), CLOCK()
    r = 0
    while True:
        elapsed = time.perf_counter() - start
        if max_rounds is not None and r >= max_rounds:
            break
        if max_rounds is None and ((elapsed >= seconds and len(run.seconds) >= MIN_OPS)
                                   or elapsed >= HARD_LIMIT_S):
            break
        batch = workload.make_round(seed, r)
        if r == 0:  # the known-defect instances, once per run
            batch = workload.probe_round() + batch
        run.fingerprint = fingerprint(batch, digest)
        if tracer is not None:  # kept for the untraced replay
            run.instances += batch
        with out_of_collector():
            for inst in batch:
                speed.maybe_sample()
                run_op(workload, inst, run, tracer)
        # Untraced, a round is dropped before the next is drawn, so that peak
        # memory does not depend on how many rounds fit in the run.
        del batch
        r += 1
    run.rounds = r
    speed.sample(EDGE_BURSTS)
    run.scale, run.references = speed.scale(), speed.samples
    run.wall, run.cpu = time.perf_counter() - start, CLOCK() - cpu_start
    return run


def replay(workload, run: Run, seconds: float, package) -> tuple[float, float]:
    """Re-run the first operations of a traced phase untraced; (traced s, untraced s)
    on them, in reference seconds."""
    clear_library_caches(package)
    again, speed = Run(), HostSpeed()
    speed.sample(EDGE_BURSTS)
    start = time.perf_counter()
    with out_of_collector():
        for inst in run.instances:
            if again.seconds and time.perf_counter() - start >= seconds:
                break
            speed.maybe_sample()
            run_op(workload, inst, again, check=False)
    speed.sample(EDGE_BURSTS)
    count = len(again.seconds)
    return sum(run.seconds[:count]) * run.scale, sum(again.seconds) * speed.scale()


def end_to_end(run: Run, setup_s: float, failed: int) -> dict[str, float]:
    """The end-to-end metrics; operation timings in reference seconds (see ``speed``)."""
    attempted = len(run.seconds)
    seconds = [s * run.scale for s in run.seconds]
    deciles = statistics.quantiles(seconds, n=10)
    return {
        "setup_s": setup_s,
        "ops_per_s": attempted / sum(seconds),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 max_rounds: int | None = None) -> dict:
    """Set up, time and check one workload; max_rounds (for tests) stops after that many rounds."""
    package = import_package()
    import workloads  # after the package, which it imports

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # Set-up is the import in a fresh interpreter plus the in-process part,
        # each repeated and its median taken.  Imports last about as long as the
        # host's fast and slow spells, so they are repeated more often.  It stays
        # in CPU seconds: the reference loop does not follow process start-up,
        # and scaling set-up by the timed phase's factor widened its spread.
        imports = [fresh_import_seconds() for _ in range(IMPORT_REPEATS)]
        in_process = []
        for _ in range(SETUP_REPEATS):
            start = CLOCK()
            workload = workload_cls(workdir)
            first = workload.make_round(seed, 0)
            warm = Run()
            for inst in workload.warm_round(seed):
                run_op(workload, inst, warm)
            in_process.append(CLOCK() - start)
        setup_cpu = statistics.median(imports) + statistics.median(in_process)
        log(f"[{name}] seed {seed}: round 0 fingerprint {fingerprint(first)} ({len(first)} instances); "
            f"set-up {setup_cpu:.4f} CPU s: fresh imports {', '.join(f'{t:.3f}' for t in imports)} s, "
            f"in process {', '.join(f'{t:.3f}' for t in in_process)} s")
        del first
        if warm.failures:
            log(f"[{name}] warm-up failures: {dict(warm.failures)}")

        clear_library_caches(package)
        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()
            tracer.install(package)
        try:
            run = timed_phase(workload, seed, seconds, tracer, max_rounds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        report(name, run)
        log(f"[{name}] instance fingerprint {run.fingerprint} over the {run.rounds} rounds run")

        attempted = len(run.seconds)
        failed = sum(run.failures.values())
        if trace:
            traced_s, untraced_s = replay(workload, run, seconds, package)
            exit_mismatches = sum(c for (kind, etype), c in run.failures.items() if etype == "ExitMismatch")
            metrics = spans.per_layer_metrics(tracer, attempted, exit_mismatches,
                                                traced_s / untraced_s - 1.0 if untraced_s else 0.0,
                                                run.scale)
            trace_path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl")
            tracer.write(trace_path)
            log(f"[{name}] {len(tracer.spans)} spans written to {trace_path}")
        else:
            values = end_to_end(run, setup_cpu, failed)
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
        for key, metric in metrics.items():
            log(f"  {key:28s} {metric['value']:14.6g} {metric['unit']}")
        log(f"  ({attempted} operations in {run.rounds} rounds)")
        return {"correct": run.unexpected == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name: str, run: Run) -> None:
    by_kind = defaultdict(list)
    for kind, sec in zip(run.kinds, run.seconds):
        by_kind[kind].append(sec)
    log(f"[{name}] {len(run.seconds)} operations in {run.wall:.2f} s wall, {run.cpu:.2f} s CPU, "
        f"{sum(run.seconds):.2f} s CPU inside operations; reference loop mean "
        f"{statistics.fmean(run.references) * 1e3:.3f} ms over {len(run.references)} bursts, "
        f"scale {run.scale:.3f}")
    for kind, secs in sorted(by_kind.items()):
        fails = {etype: c for (k, etype), c in run.failures.items() if k == kind}
        log(f"  {kind:12s} n={len(secs):5d} p50={statistics.median(secs) * 1e3:9.3f} CPU ms "
            f"max={max(secs) * 1e3:9.3f} ms failures={fails or 0}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.setrecursionlimit(1000)  # the interpreter default, which the known RecursionError depends on
    sys.path.insert(0, BENCH_DIR)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
