"""spinpath benchmark.

    python3 perfbench/run.py --workload bell-calibration --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, and the run fails when that directory is missing.  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics.  Every metric is printed as
``name = value unit``; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A full report
(samples, fingerprint, diagnostics, provenance) and, for traced runs, the
spans are written under perfbench/out/.  The exit code is 0 when every
output check passed, 1 when one failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("bell-calibration", "polar-scan", "cli-artifacts")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class Tally:
    """Operations attempted and failed, with the digest of each output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: list = []
        self.failures: list = []

    def record(self, i, digest, problems):
        self.digests.append(digest)
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"op": i, "problems": problems[:5]})


def run_ops(workload, tally, seconds=0.0, count=None, tracer=None) -> list:
    """Closed loop, one operation at a time.

    Runs ``count`` operations, or else until ``seconds`` have passed and the
    workload's fingerprint operations are done.  Returns the durations in
    seconds of the operations that passed their checks; checks run outside
    the timed interval."""
    durations = []
    deadline = time.perf_counter() + seconds
    done = 0
    while (done < count if count is not None else
           time.perf_counter() < deadline
           or tally.attempted < workload.fingerprint_ops):
        i = tally.attempted
        tally.attempted += 1
        done += 1
        if tracer is not None:
            tracer.op = i
        span = tracer.span("bench.op") if tracer else contextlib.nullcontext()
        try:
            start = time.perf_counter()
            with span:
                output = workload.op(i)
            elapsed = time.perf_counter() - start
            problems, digest = workload.check(i, output)
        except Exception:  # an operation that raises counts as failed
            problems, digest = [traceback.format_exc(limit=4)], "error"
        tally.record(i, digest, problems)
        if not problems:
            durations.append(elapsed)
    return durations


def repeat_first(workload, tally) -> list:
    """Run operation 0 again; its output must not change."""
    try:
        _, again = workload.check(0, workload.op(0))
    except Exception:
        return ["operation 0 raised when repeated: " + traceback.format_exc(limit=4)]
    return checks.check_repeat(tally.digests[0], again)


def fingerprint(workload, tally) -> str:
    return checks.sha256("\n".join(tally.digests[:workload.fingerprint_ops]))


def latency_summary(durations) -> dict:
    """Median, tail and throughput of operation durations (seconds).

    The tail is the highest percentile with at least ten samples beyond it,
    i.e. the 11th-largest duration; below 20 samples it is the maximum."""
    ordered = sorted(durations)
    n = len(ordered)
    if n >= 20:
        tail, percentile = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, percentile = ordered[-1], 100.0
    return {
        "op_ms_p50": 1e3 * statistics.median(ordered),
        "op_ms_tail": 1e3 * tail,
        "ops_per_s": n / sum(ordered),
        "samples": n,
        "tail_percentile": percentile,
        "durations_ms": [1e3 * d for d in durations],
    }


def measure_setup(name, seed, workdir) -> list:
    """Seconds from launching a fresh interpreter to the end of its warm-up
    operation, one sample per probe process."""
    samples = []
    for k in range(SETUP_PROBES):
        launch = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed),
             str(workdir / f"probe-{k}")],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]) - launch)
    return samples


def provenance() -> dict:
    import numpy
    import spinpath

    src_lines = {
        f"{path.stem}.src_lines": path.read_bytes().count(b"\n")
        for path in sorted((SRC / "spinpath").glob("*.py"))
    }
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "spinpath": getattr(spinpath, "__version__", None),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(numpy),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARIABLES},
        "git_commit": _git_commit(),
        "src_lines": src_lines,
        "src_lines_total": sum(src_lines.values()),
    }


def _cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.processor() or None


def _blas(numpy):
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("name") for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        return None


def _git_commit():
    """HEAD of the checkout's own .git, read without running git (which
    would look for a repository above a checkout that has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_untraced(workload, tally, args, workdir) -> tuple:
    setup = measure_setup(workload.name, args.seed, workdir)
    workload.warmup()
    durations = run_ops(workload, tally, seconds=args.seconds)
    if not durations:
        return {}, {"setup_samples_s": setup}
    summary = latency_summary(durations)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_ms_p50": (summary["op_ms_p50"], "ms"),
        "op_ms_tail": (summary["op_ms_tail"], "ms"),
        "ops_per_s": (summary["ops_per_s"], "1/s"),
    }
    details = {"setup_samples_s": setup, "latency": summary}
    return metrics, details


def run_traced(workload, tally, args) -> tuple:
    """Half the time untraced, then a fixed number of traced operations;
    the difference of their medians is the tracing overhead."""
    from tracing import UNTRACED_MODULES, Tracer, layer_metrics, self_times

    workload.warmup()
    plain = run_ops(workload, tally, seconds=args.seconds / 2.0)
    tracer = Tracer()
    with tracer.installed():
        workload.tracer = tracer
        try:
            traced = run_ops(workload, tally, count=workload.traced_ops,
                             tracer=tracer)
        finally:
            workload.tracer = None
    if not (plain and traced):
        return {}, {}
    metrics = layer_metrics(tracer.spans)
    overhead_s = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_ms"] = (1e3 * overhead_s, "ms")
    spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
    tracer.write_jsonl(spans_path)
    details = {
        "traced_ops": workload.traced_ops,
        "untraced_latency": latency_summary(plain),
        "traced_latency": latency_summary(traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "self_s": self_times(tracer.spans),
        "missing_wrappers": tracer.missing,
        "untraced_modules": UNTRACED_MODULES,
    }
    return metrics, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinpath" / "__init__.py").is_file():
        print(f"error: no spinpath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    import workloads

    import spinpath
    if Path(spinpath.__file__).resolve().parent != SRC / "spinpath":
        print(f"error: imported spinpath from {spinpath.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally()
    try:
        if args.trace:
            metrics, details = run_traced(workload, tally, args)
        else:
            metrics, details = run_untraced(workload, tally, args, workdir)
        run_problems = repeat_first(workload, tally)
        whole_problems, diagnostics = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run_problems += whole_problems
    correct = tally.failed == 0 and not run_problems and bool(metrics)
    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    aliases = {}
    if metrics and not args.trace:
        for alias, (name, scale, unit) in workload.aliases.items():
            aliases[alias] = (metrics[name][0] * scale, unit)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_fraction": tally.failed / tally.attempted,
        "metrics": result_metrics,
        "aliases": {k: {"value": v, "unit": u} for k, (v, u) in aliases.items()},
        "fingerprint": fingerprint(workload, tally),
        "fingerprint_ops": workload.fingerprint_ops,
        "run_problems": run_problems, "failures": tally.failures,
        "diagnostics": diagnostics, "details": details,
        "provenance": provenance(),
    }
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for name, (value, unit) in {**metrics, **aliases}.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_fraction = {report['failed_fraction']!r}")
    for name, value in diagnostics.items():
        print(f"{name} = {value!r}")
    print(f"fingerprint = {report['fingerprint']}")
    print(f"src_lines_total = {report['provenance']['src_lines_total']}")
    if details.get("missing_wrappers"):
        print(f"missing_wrappers = {details['missing_wrappers']}")
    for problem in run_problems + [f"op {f['op']}: {f['problems']}"
                                   for f in tally.failures]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"report = {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
