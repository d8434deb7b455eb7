"""Run one workload of the stf-spde benchmark and print its metrics.

    python3 bench/run.py --workload simulate_paths --seed 1 --seconds 36 --trace 0

Run from a checkout of the repository: the package is imported from its
`src/` directory, never from an installed copy, and everything the run
writes goes under `.bench_work/`. The workload body calls
`stf_spde.cli.main` in this process, on one thread; see README.md for the
workloads, the metrics and the correctness gate.

With `--trace 0` the run reports the end-to-end metrics: the median wall
time of the repeated body, the median set-up time of fresh interpreters,
the process's peak resident memory and the share of calls that passed the
gate. With `--trace 1` it times one or more untraced repetitions, then
wraps the package's public functions and reports the per-layer metrics of
the traced repetitions. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
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

sys.dont_write_bytecode = True  # before the benchmark's own imports
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PINNED_ENV = {
    "STF_SPDE_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}

SETUP_REPEATS = 3
MIN_REPS = 2  # the replay check compares repetitions

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_frac", "frac"),
]


class Calls:
    """Runs CLI calls, keeping what the gate needs: exit code, stdout, output dir."""

    def __init__(self, cli):
        self.cli = cli
        self.records = []

    def run(self, rep, call_id, argv):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(argv)
        except Exception:  # a crash is a failed call, not a failed benchmark
            traceback.print_exc()
            rc = "exception"
        self.records.append(
            {"rep": rep, "call": call_id, "argv": argv, "rc": rc,
             "stdout": sink.getvalue(), "out_dir": argv[argv.index("--out") + 1]}
        )

    def rep(self, rep, body):
        """One repetition of the body; returns its wall time in seconds."""
        start = time.perf_counter()
        for call_id, argv in body:
            self.run(rep, call_id, argv)
        return time.perf_counter() - start


def setup_seconds(configs, repeats):
    """Median set-up time over fresh interpreters, and every sample."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), *configs.values()],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), samples


def run_gate(gate, cli, calls, reference):
    """Check every call; returns {(rep, call): [failure, ...]} for the failed ones."""
    for r in calls.records:
        r["digest"] = gate.tree_digest(r["out_dir"])
    first = {r["call"]: r["digest"] for r in calls.records if r["rep"] == 0}
    failures = {}
    for r in calls.records:
        found = gate.check_exit(r["rc"])
        if not found:
            command = r["argv"][0]
            if command == "verify":
                found += gate.check_verdicts(r["out_dir"])
            if command == "fixed-point":
                found += gate.check_fixed_point_report(r["stdout"])
            if r["rep"] not in ("probe", 0) and r["call"] in first:
                found += gate.check_replay(r["digest"], first[r["call"]])
            key = r["call"].removeprefix("probe:")
            if (r["rep"] == "probe" or command == "verify") and key in reference:
                found += gate.check_reference(gate.extract(r["out_dir"]), reference[key])
            elif r["rep"] == "probe":
                found.append(f"no reference stored for {key}")
            if command == "fixed-point" and r["rep"] in ("probe", 0):
                found += gate.check_staircase(cli, r["argv"], r["out_dir"])
        if found:
            failures[(r["rep"], r["call"])] = found
    return failures


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repo."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "pinned_env": PINNED_ENV,
    }


def run(args, work: Path) -> dict:
    import gate

    configs = workloads.write_configs(args.workload, str(work / "configs"))
    setup, setup_samples = None, []
    if not args.trace:
        setup, setup_samples = setup_seconds(configs, 1 if args.smoke else SETUP_REPEATS)

    from stf_spde import cli

    reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
    calls = Calls(cli)
    # the reference probe doubles as warm-up: caches fill, lazy imports finish
    for call_id, argv in workloads.reference_calls(args.workload, configs, str(work / "probe")):
        calls.run("probe", call_id, argv)

    def body(rep):
        return workloads.calls(args.workload, configs, str(work / f"rep{rep}"),
                               args.seed, args.smoke)

    def timed(rep):
        return calls.rep(rep, body(rep))

    def more(times, least, budget):
        """Another repetition, if it is needed or fits in the budget."""
        if len(times) < least:
            return True
        return time.perf_counter() - start + times[-1] <= budget

    walls, traced, rep = [], [], 0
    start = time.perf_counter()
    while more(walls, 1 if args.trace else MIN_REPS,
               args.seconds / 2 if args.trace else args.seconds):
        walls.append(timed(rep))
        rep += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    layer_metrics, missing = None, set()
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        missing = layers.install(tracer)
        try:
            while more(traced, 1, args.seconds):
                traced.append(timed(rep))
                rep += 1
        finally:
            tracer.uninstall()
        written = statistics.median(
            sum(gate.tree_bytes(r["out_dir"]) for r in calls.records if r["rep"] == k)
            for k in range(rep - len(traced), rep)
        )
        spans = layers.Spans(tracer, len(traced), statistics.median(traced),
                             statistics.median(walls), written)
        layer_metrics = layers.metrics(spans, missing)
        if spans.a["self_ns"].size and spans.a["self_ns"].min() < 0:
            raise RuntimeError("a span has negative self time: the tracer is broken")
        (WORK / "trace").mkdir(parents=True, exist_ok=True)
        tracer.save(str(WORK / "trace" / f"{args.workload}-seed{args.seed}.npz"))

    failures = run_gate(gate, cli, calls, reference)
    attempted = len(calls.records)
    failed = len(failures)
    if args.trace:
        metrics = {
            name: {"value": layer_metrics[name], "unit": unit}
            for name, unit, _, _ in layers.PER_LAYER
        }
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup,
            "peak_rss_mb": peak_rss_mb,
            "passed_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "rep_wall_s": walls,
        "traced_rep_wall_s": traced,
        "setup_samples_s": setup_samples,
        "missing_targets": sorted(missing),
        "failures": [
            {"rep": k[0], "call": k[1], "checks": v} for k, v in failures.items()
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the repeated body; a repetition starts "
                        "only if it is expected to end within it (at least two run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up probe, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "stf_spde" / "cli.py").is_file():
        print(f"no package source at {SRC / 'stf_spde'}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        record = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    result = record["result"]
    print(f"environment: {json.dumps(record['environment'])}")
    for failure in record["failures"]:
        print(f"FAILED {failure['rep']} {failure['call']}: {'; '.join(failure['checks'])}")
    if record["missing_targets"]:
        print(f"missing wrap targets: {', '.join(record['missing_targets'])}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
