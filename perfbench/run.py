"""retroselect benchmark: one seeded workload, measured end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 10 --trace 0

It builds its inputs from ``--seed``, sets up the workload several times
(``setup_s`` is the median), then runs operations as a closed loop with one
client until they have taken ``--seconds`` of wall time, checking every
output. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the operations alternate
between untraced and traced, and the metrics are the per-layer ones. The
line before it is a report: the environment, the workload's own named
metrics and, when traced, every span's totals.
"""

import os

# Pin every BLAS and OpenMP pool before numpy is first imported: the machine
# may have few cores, and thread counts change both speed and rounding.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# Set-up runs at least SETUP_REPS times and, when it is cheap, until it has
# taken SETUP_SECONDS; setup_s is the median.
SETUP_REPS = 3
SETUP_SECONDS = 4.0
SETUP_MAX_REPS = 9
# Operations (or, traced, cycles) per run at least, so a traced run has
# untraced and traced operations and a slow workload still gives a median
# of two.
MIN_OPS = 2
MODULES = ("chem", "chem.parser", "data", "encoder", "autodiff", "training",
           "index", "scoring", "search", "toy")


class Library:
    """The retroselect submodules, loaded from this checkout's ``src/``."""

    def __init__(self):
        package = os.path.join(SRC, "retroselect")
        if not os.path.isfile(os.path.join(package, "__init__.py")):
            raise FileNotFoundError(f"no retroselect package under {SRC}")
        sys.path.insert(0, SRC)
        root = importlib.import_module("retroselect")
        if os.path.dirname(os.path.abspath(root.__file__)) != package:
            raise ImportError(f"retroselect imported from {root.__file__}, not {package}")
        for name in MODULES:
            module = importlib.import_module(f"retroselect.{name}")
            if "." not in name:
                setattr(self, name, module)


def blas_threads():
    """Effective OpenBLAS thread count, asked of the loaded library."""
    import numpy
    for directory in (os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs"),
                      os.path.join(os.path.dirname(numpy.__file__), ".libs")):
        for path in glob.glob(os.path.join(directory, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    return getter()
    return None


def git_sha():
    """Commit of the checkout, read from ``.git`` without running git; None
    when the checkout is not a repository."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha(), "src_lines": src_lines()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def more_setups(setup_s: list[float], traced: bool) -> bool:
    if not setup_s:
        return True
    if traced:
        return False  # one traced set-up gives the set-up breakdown
    if len(setup_s) < SETUP_REPS:
        return True
    return sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_MAX_REPS


def run_checked(workload, state, item, context=None):
    """One timed operation, then its check outside the timing. Returns the
    seconds taken and the output, or None as output if the operation raised
    or failed its check."""
    start = time.perf_counter()
    try:
        with context or nullcontext():
            out = workload.run(state, item)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    errors = workload.check(state, item, out)
    if errors:
        print(f"{workload.name} operation failed its check: " + "; ".join(errors[:5]),
              file=sys.stderr)
        return elapsed, None
    return elapsed, out


def more_ops(attempted: int, min_ops: int, projected: float, seconds: float,
             cycle: int) -> bool:
    """Whether to run another operation: the run stops at the operation
    boundary nearest to ``seconds`` of busy time (``projected`` adds half of
    the last operation), then completes its cycle; at least ``min_ops``."""
    return attempted < min_ops or projected < seconds or attempted % cycle != 0


def measure(rs, workload, args, size, tracer):
    """Set up, then run checked operations for ``args.seconds``."""
    setup_s = []
    state = None
    while more_setups(setup_s, traced=tracer is not None):
        rep = len(setup_s)
        state = None
        gc.collect()
        rep_dir = os.path.join(args.work_dir, f"setup{rep}")
        os.makedirs(rep_dir)
        start = time.perf_counter()
        with tracer.root("setup") if tracer else nullcontext():
            state = workload.setup(rs, args.seed, rep_dir, size)
        setup_s.append(time.perf_counter() - start)
    gc.collect()
    setup_peak = peak_rss_mb()

    # In a traced run, whole cycles alternate between untraced and traced.
    min_ops = MIN_OPS * workload.cycle if tracer else MIN_OPS
    timings = {False: [], True: []}
    parts = []
    attempted = failed = 0
    busy = 0.0
    last = 0.0
    while more_ops(attempted, min_ops, busy + last / 2, args.seconds, workload.cycle):
        traced = tracer is not None and (attempted // workload.cycle) % 2 == 1
        elapsed, out = run_checked(workload, state, workload.next_input(state, attempted),
                                   tracer.root("op") if traced else None)
        attempted += 1
        busy += elapsed
        last = elapsed
        if out is None:
            failed += 1
            continue
        timings[traced].append(elapsed)
        if not traced:
            parts.append(workload.parts(out))
        del out
    return (state, setup_s, setup_peak, timings[False], timings[True], parts, attempted,
            failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    try:
        rs = Library()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import layers
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    size = workloads.SIZES[args.workload]["smoke" if args.smoke else "full"]
    tracer = tracing.Tracer(layers.targets(rs)) if args.trace else None

    args.work_dir = os.path.join(WORK, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(args.work_dir, ignore_errors=True)
    try:
        state, setup_s, setup_peak, plain_s, traced_s, parts, attempted, failed = measure(
            rs, workload, args, size, tracer)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(),
              "setup_s_each": setup_s, "op_s_each": plain_s, "traced_op_s_each": traced_s,
              "ops_failed_frac": failed / attempted}
    if parts:
        report.update(workload.named_metrics(state, parts))
    if tracer:
        trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
        report["spans"] = {phase: tracer.summary(phase) for phase in ("setup", "op")}
        values = layers.per_layer_values(tracer, traced_s or [0.0], plain_s or [0.0])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _moves, _get in layers.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "op_ms_p50": {"value": statistics.median(plain_s) * 1e3 if plain_s else None,
                          "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    # Set-up and operations share one process, so peak_rss_mb only shows
    # what operations add when it exceeds the peak left by set-up.
    report["setup_peak_rss_mb"] = setup_peak
    report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
