"""End-to-end benchmark of the repo's user-visible flows.

Run from the repository root::

    python3 perfbench/run.py --workload netlist_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
measured with no wrappers installed; ``--trace 1`` prints the per-layer
metrics from a traced run (see ``tracing.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds
host-noise diagnostics (steal share, a fixed pure-Python probe, the
environment), which are reported and never used to gate or rescale.

Each run times many ops for ``--seconds`` (and at least ``MIN_OPS``),
so medians and the tail are taken over one run's ops.  Every op's
result is compared against a reference computed once per seed by an
independent path; an op that raises or differs counts as failed.
"""

import os

# One BLAS/OpenMP thread in this process and every child: with numpy's
# default of one thread per CPU the exact PROTEST estimators' timings
# spread twice as wide on a two-CPU host.  Set before numpy loads.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"
# The artifact store stays in memory: no cache directory outside the run.
os.environ.pop("REPRO_CACHE_DIR", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

SETUP_STARTS = 5
"""Fresh interpreters timed for ``setup_s``."""
SETUP_TIMEOUT_S = 60.0

TAIL_BEYOND = 10
"""The tail is the op with this many slower ops in the run."""
MIN_OPS = 2 * TAIL_BEYOND + 1
MIN_TRACED_OPS = 3
MAX_LOOP_S = 100.0
"""Hard cap on the timed loop, so a run on a slow host still ends."""

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "faults_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _digest_hash(digest) -> str:
    return hashlib.sha256(repr(digest).encode()).hexdigest()


def _probe_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop (host speed probe)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for value in range(100000):
            total += value * value % 7
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def _cpu_ticks():
    """``(steal, total)`` jiffies of the host, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _steal_share(before, after):
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("utilisation"):
        return "ratio"
    return "count"


# -- set-up: time to first result in a fresh interpreter --------------------------


def _measure_setup(name: str, seed: int):
    """Median wall time of ``SETUP_STARTS`` fresh interpreters, each
    running imports, input generation and the first op; the digests
    they report are checked later.  A discarded interpreter start first
    compiles every ``.pyc`` file, so a freshly changed checkout does not
    pay that inside ``setup_s``."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SOURCE), str(HERE)],
        cwd=ROOT, capture_output=True, timeout=SETUP_TIMEOUT_S,
    )
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", name, "--seed", str(seed),
    ]
    times, digests = [], []
    for _ in range(SETUP_STARTS):
        began = time.perf_counter()
        try:
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True,
                timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            done = None
        times.append(time.perf_counter() - began)
        digest = None
        if done is not None and done.returncode == 0 and done.stdout.strip():
            digest = json.loads(done.stdout.strip().splitlines()[-1])["digest"]
        digests.append(digest)
    return statistics.median(times), times, digests


# -- the timed loops -------------------------------------------------------------


class Checked:
    """Runs ops and counts those that raise or differ from the reference."""

    def __init__(self, workload, reference_digest):
        self.workload = workload
        self.reference_digest = reference_digest
        self.attempted = 0
        self.failed = 0

    def run(self):
        """One op: ``(seconds, result or None)``.

        Garbage left by the previous op is collected before the clock
        starts, so every op begins from the same heap state."""
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            result = self.workload.op()
        except Exception:  # an op that raises is a failed op
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.failed += 1
            return elapsed, None
        elapsed = time.perf_counter() - start
        if self.workload.digest(result) != self.reference_digest:
            print("op result differs from the reference", file=sys.stderr)
            self.failed += 1
            return elapsed, None
        return elapsed, result


def _untraced_loop(checked: Checked, seconds: float):
    times = []
    began = time.perf_counter()
    while True:
        spent = time.perf_counter() - began
        if spent >= MAX_LOOP_S or (spent >= seconds and len(times) >= MIN_OPS):
            return times
        times.append(checked.run()[0])


def _traced_loop(checked: Checked, seconds: float):
    """Alternate untraced and traced ops, so host drift hits both alike."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, figures = [], [], []
    began = time.perf_counter()
    while True:
        spent = time.perf_counter() - began
        enough = min(len(plain), len(traced)) >= MIN_TRACED_OPS
        if spent >= MAX_LOOP_S or (spent >= seconds and enough):
            return plain, traced, figures
        if len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                elapsed, result = checked.run()
            finally:
                tracer.uninstall()
            op_figures = tracer.collect()
            op_figures["consumed"] = (
                checked.workload.consumed(result) if result is not None else 0
            )
            traced.append(elapsed)
            figures.append(op_figures)
        else:
            plain.append(checked.run()[0])


def _per_layer(workload, plain, traced, figures):
    def median(key):
        return statistics.median(figure[key] for figure in figures)

    metrics = {key: median(key) for key in figures[0]}
    consumed = metrics.pop("consumed")
    generated = metrics["source.patterns_generated"]
    metrics["faultsim.patterns_consumed"] = consumed
    metrics["faultsim.useful_ratio"] = consumed / generated if generated else 0.0
    jobs = getattr(workload, "jobs", None) or 1
    metrics["sharded.worker_utilisation"] = statistics.median(
        figure["sharded.worker_cpu_s"] / (jobs * figure["sharded.dispatch_wait_s"])
        if figure["sharded.dispatch_wait_s"] > 0 else 0.0
        for figure in figures
    )
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS, shape_problems

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}"
        )
    if args.setup_probe:
        # The child side of setup_s: imports, inputs, one op, its digest.
        workload = WORKLOADS[args.workload](args.seed)
        print(json.dumps({"digest": _digest_hash(workload.digest(workload.op()))}))
        return 0

    setup = None
    if args.trace == 0:
        setup = _measure_setup(args.workload, args.seed)

    import numpy

    workload = WORKLOADS[args.workload](args.seed)
    reference = workload.reference()
    checked = Checked(workload, workload.digest(reference))
    problems = []
    if setup is not None:
        expected = _digest_hash(checked.reference_digest)
        for digest in setup[2]:
            checked.attempted += 1
            if digest != expected:
                checked.failed += 1
                problems.append("a set-up start reported a different result")

    # One untimed op fills the process-level caches set-up filled.
    _, warm = checked.run()
    if warm is None:
        problems.append("the first op differs from the reference")
    else:
        problems.extend(shape_problems(workload.name, workload.stats(warm)))

    ticks_before = _cpu_ticks()
    probe_before = _probe_ms()
    if args.trace == 0:
        times = _untraced_loop(checked, args.seconds)
        median = statistics.median(times)
        metrics = {
            "setup_s": setup[0],
            "op_p50_s": median,
            "op_tail_s": sorted(times)[-1 - TAIL_BEYOND],
            "faults_per_s": workload.faults / median,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        ops = len(times)
    else:
        plain, traced, figures = _traced_loop(checked, args.seconds)
        metrics = _per_layer(workload, plain, traced, figures)
        units = {name: _unit(name) for name in metrics}
        ops = len(plain) + len(traced)
    probe_after = _probe_ms()
    ticks_after = _cpu_ticks()

    diagnostics = {
        "workload": workload.name,
        "seed": args.seed,
        "timed_ops": ops,
        "tail_percentile": (
            round(100.0 * (1 - TAIL_BEYOND / ops), 1) if args.trace == 0 else None
        ),
        "setup_samples_s": setup[1] if setup is not None else None,
        "steal_share": _steal_share(ticks_before, ticks_after),
        "probe_ms_before": probe_before,
        "probe_ms_after": probe_after,
        "problems": problems,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "tune": "default",
    }
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": checked.failed == 0 and not problems,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
