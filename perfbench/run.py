"""Benchmark of the minor-weight library: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-chains --seed 1 --seconds 36 \
        --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  The run re-executes itself with ``PYTHONHASHSEED`` and
the BLAS thread counts pinned, sets up (imports the package in a fresh
interpreter and builds the workload's inputs), self-tests the independent
checks, runs one untimed warm-up pass and then whole passes until
``--seconds`` have gone by.  Set-up is repeated between passes and its
median reported.  Every output is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library's public functions and reports the per-layer metrics instead.  The
last line of stdout is the result as one JSON object; a fuller record goes
to ``.perfbench/results/`` and the spans of the last traced pass to
``.perfbench/traces/``.
"""

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import selftest
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set-up and the import probe are repeated and their medians reported
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "small_s": "s", "large_s": "s",
              "peak_rss_mb": "MB"}
LAYERS = {
    "matrix_core.int_determinant.s": "s",
    "matrix_core.int_determinant.calls": "count",
    "equilibrium.minor_weights.s": "s",
    "matrix_core.determinant.s": "s",
    "matrix_core.determinant.calls": "count",
    "reducibility.communicating_classes.s": "s",
    "reducibility.communicating_classes.calls": "count",
    "reducibility.communicating_classes.useful_ratio": "ratio",
    "reducibility.equilibrium_polytope.s": "s",
    "graph_walk.graph_stationary.directed_s": "s",
    "graph_walk.graph_stationary.undirected_s": "s",
    "graph_walk.Graph.s": "s",
    "matrix_core.StochasticMatrix.s": "s",
    "matrix_core.StochasticMatrix.calls": "count",
    "equilibrium.closed_form.s": "s",
    "equilibrium.stationary.self_s": "s",
    "cli.parse_input.s": "s",
    "cli.main.self_s": "s",
    "oracle.power_method.s": "s",
    "oracle.linear_solve_stationary.s": "s",
    "equilibrium.relative_probability.s": "s",
}
# measured by the runner rather than from spans
PROBES = {"cli.import.s": "s", "trace.small_s": "s", "trace.large_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact-chains", "float-chains", "cli-calls"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def pin_environment():
    """Re-execute with a fixed hash seed and one BLAS thread, unless this
    process already runs that way.  Children inherit the same settings."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(sys.executable,
              [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
              env)


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("EQUILIB_MODE", None)
    return env


def time_child(code):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def import_cost():
    """``import equilib.cli`` in a fresh interpreter minus a bare one."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(time_child("pass"))
        full.append(time_child("import equilib.cli"))
    return statistics.median(full) - statistics.median(bare)


def host_info():
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine()}


class Library:
    """The names the operations call, looked up at call time so that the
    tracer's wrappers are the ones called."""

    def __init__(self, package, in_process_cli):
        self.equilibrium = package.equilibrium
        self.graph_walk = package.graph_walk
        self._cli = package.cli
        self.run_cli = self._replay if in_process_cli else self._spawn

    def _spawn(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "equilib.cli", *argv], env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def _replay(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self._cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()


class Ledger:
    """Attempts, failures and the first message of each failing op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.messages = {}

    def record(self, op, error, counted=True):
        self.attempted += counted
        if error is None:
            return
        self.failed += counted
        self.unexpected += op.known_fault is None
        if op.name not in self.messages:
            self.messages[op.name] = {
                "known_fault": op.known_fault,
                "error": f"{type(error).__name__}: {error}"}
            if op.known_fault is None:
                traceback.print_exception(error, file=sys.stderr)


def run_op(op, lib):
    """Time one operation, then check its output outside the timer."""
    t0 = time.perf_counter()
    try:
        out = op.call(lib)
    except Exception as exc:  # a failing operation is counted, not fatal
        return time.perf_counter() - t0, exc
    elapsed = time.perf_counter() - t0
    try:
        op.check(out)
    except Exception as exc:  # a malformed output fails its check too
        return elapsed, exc
    return elapsed, None


def main(argv=None):
    args = parse_args(argv)
    pin_environment()
    if not (SRC / "equilib" / "__init__.py").is_file():
        sys.exit(f"perfbench: no equilib package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("EQUILIB_MODE", None)

    import workloads                     # imports numpy: after pinning

    build = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, build, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, build, workdir):
    def set_up():
        t0 = time.perf_counter()
        time_child("import equilib")
        ops = build(random.Random(args.seed), workdir)
        setup_times.append(time.perf_counter() - t0)
        return ops

    setup_times = []
    ops = set_up()

    import equilib
    import equilib.cli
    if Path(equilib.__file__).resolve().parent != SRC / "equilib":
        sys.exit(f"perfbench: imported equilib from {equilib.__file__}, "
                 f"not from {SRC}")

    ledger = Ledger()
    correct = True
    try:
        selftest.run()
    except checks.CheckError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        correct = False

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(equilib, [getattr(equilib, name)
                                 for name in spans.TRACED_MODULES])
    lib = Library(equilib, in_process_cli=bool(args.trace))

    for op in ops:                       # warm-up pass, untimed, uncounted
        ledger.record(op, run_op(op, lib)[1], counted=False)
    passes, per_pass_layers, last_spans, op_times = [], [], [], {}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        gc.collect()
        if tracer:
            tracer.spans.clear()
        tiers = {"small": 0.0, "large": 0.0}
        for op in ops:
            elapsed, error = run_op(op, lib)
            tiers[op.tier] += elapsed
            op_times.setdefault(op.name, []).append(elapsed)
            ledger.record(op, error)
        passes.append(tiers)
        if tracer:
            per_pass_layers.append(spans.pass_layers(tracer.spans))
            last_spans = list(tracer.spans)
        # the remaining set-ups are spread over the run, like the passes,
        # so that their median sees the same phases of the host
        due = (time.perf_counter() - start) * SETUP_REPEATS / args.seconds
        if len(setup_times) < min(due, SETUP_REPEATS):
            set_up()
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    correct = correct and ledger.unexpected == 0

    small = statistics.median(p["small"] for p in passes)
    large = statistics.median(p["large"] for p in passes)
    unsteady = []
    if tracer:
        values, unsteady = spans.layer_metrics(per_pass_layers, LAYERS)
        values["cli.import.s"] = import_cost()
        values["trace.small_s"] = small
        values["trace.large_s"] = large
        units = {**LAYERS, **PROBES}
        write_spans(args, last_spans)
    else:
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli-calls"
               else resource.RUSAGE_SELF)
        values = {"setup_s": statistics.median(setup_times),
                  "small_s": small, "large_s": large,
                  "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
        units = END_TO_END
    for name in unsteady:
        print(f"perfbench: {name} differs between passes", file=sys.stderr)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_info(), "passes": passes,
              "setup_times": setup_times, "failures": ledger.messages,
              "op_median_s": {name: statistics.median(times)
                              for name, times in op_times.items()},
              "unsteady_counts": unsteady}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"host": record["host"], "passes": len(passes),
                      "failures": ledger.messages}))
    print(json.dumps(result))
    return 0


def write_spans(args, last_spans):
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    t0 = last_spans[0][1] if last_spans else 0.0
    with open(traces / f"{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for name, start, end, parent, _ in last_spans:
            fh.write(json.dumps({"name": name, "start": start - t0,
                                 "end": end - t0, "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
