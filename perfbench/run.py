"""Benchmark for cutmimic: seeded workloads through the in-process CLI.

    python3 perfbench/run.py --workload corpus-small --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each op is a
`cutmimic.frontend.cli(argv)` call that starts when the previous one has
returned. `--trace 0` prints the end-to-end metrics, `--trace 1` runs the
same ops under the binding-site tracer and prints the per-layer metrics.
Every output is checked after the timed pass; an op that raises, returns an
unexpected exit code or fails its check counts as failed, with its instance
seed, and never as fast. `--workload all` runs every workload in turn, each
in its own process. The last line of output is one JSON object; see
README.md in this directory for every metric.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("corpus-small", "dense-k2", "sparse-chains")
SETUP_REPEATS = 3
# A run generates this many times the instances the defining commit got
# through in --seconds, so a faster commit still measures for --seconds.
POOL_HEADROOM = 3
TAIL_MIN_BEYOND = 10


def percentile(values: list[float], p: int) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it,
    never below the median."""
    return max(50, math.floor(100 * (1 - TAIL_MIN_BEYOND / n)))


def timing_stats(values: list[float]) -> dict:
    p = tail_percentile(len(values))
    return {"p50": statistics.median(values), "tail": percentile(values, p),
            "tail_percentile": p, "samples": len(values)}


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cutmimic")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": git_commit(),
            "src_sha256": digest.hexdigest()[:16]}


def git_commit() -> str:
    """HEAD of the enclosing git checkout, read from .git; "unknown" when
    the tree is not a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_op(cli, op) -> tuple[int | None, str | None]:
    """Exit code, or None and the exception that escaped cli()."""
    try:
        return cli(op.argv), None
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # SystemExit and AssertionError included
        return None, f"{type(exc).__name__}: {exc}"


def prepare(name: str, seed: int, count: int, workdir: str):
    """Generate and write `count` instances of a workload, SETUP_REPEATS
    times; returns the workload, the instances and the median time of one
    generate-and-write."""
    import workloads
    work = workloads.WORKLOADS[name]
    seeds = [workloads.instance_seed(seed, i) for i in range(count)]
    build_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        instances = [work.generate(s, workdir) for s in seeds]
        build_s.append(time.perf_counter() - t0)
    return work, instances, statistics.median(build_s)


def execute(cli, work, instances, seconds=None, tracer=None
            ) -> tuple[list, float]:
    """The timed pass: the ops of each instance in turn, one at a time,
    until `seconds` have been spent inside ops (or the instances run out).
    An instance's reference values are computed just before its ops,
    outside their timers. Returns (instance, op, seconds, exit code, error)
    per op and the seconds spent inside ops."""
    results = []
    busy_s = 0.0
    if tracer is not None:
        tracer.install()
    # A CLI call normally starts in a fresh process; keep the benchmark's
    # own long-lived objects (inputs, reference tables) out of the
    # collector's scans so the ops pay only for their own garbage.
    gc.collect()
    gc.freeze()
    try:
        for index, inst in enumerate(instances):
            if seconds is not None and busy_s >= seconds:
                break
            work.reference(inst)
            work.plan(inst, index)
            for op in inst.ops:
                start = time.perf_counter()
                if tracer is None:
                    code, err = run_op(cli, op)
                else:
                    code, err = tracer.op(lambda: run_op(cli, op))
                elapsed = time.perf_counter() - start
                busy_s += elapsed
                results.append((inst, op, elapsed, code, err))
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.uninstall()
    return results, busy_s


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import cutmimic; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter, over
    SETUP_REPEATS interpreters run one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    sys.path.insert(0, SRC)
    from cutmimic.frontend import cli
    from workloads import WORKLOADS
    import_s = import_seconds()

    count = max(1, math.ceil(seconds * WORKLOADS[name].rate * POOL_HEADROOM))
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # Set-up time is one import plus one generate-and-write, each the
        # median of several.
        work, instances, build_s = prepare(name, seed, count, workdir)
        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer()
        results, busy_s = execute(cli, work, instances, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = {"import_s": import_s, "build_s": build_s}
        return summarize(work, results, tracer, setup, busy_s, peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def summarize(work, results, tracer, setup, busy_s, peak_rss_mb) -> dict:
    from workloads import trace_counts
    failures = []
    times: dict[str, list[float]] = {}
    pipeline: dict[int, float] = {}
    totals = {"edges_out": 0, "marked_edges": 0, "contractions": 0,
              "recursions": 0, "stop.base": 0, "stop.saturated": 0}
    for inst, op, secs, code, err in results:
        times.setdefault(op.cmd, []).append(secs)
        pipeline[inst.seed] = pipeline.get(inst.seed, 0.0) + secs
        if err is None and code not in op.expect:
            err = f"exit code {code}, expected one of {list(op.expect)}"
        if err is None:
            try:
                err = work.check(inst, op)
                if err is None and op.cmd == "reduce":
                    with open(op.out, encoding="utf-8") as fh:
                        totals["edges_out"] += int(fh.readline().split()[3])
                    for key, val in trace_counts(op.trace).items():
                        totals[key] += val
                elif err is None and op.cmd == "mark":
                    with open(op.out, encoding="utf-8") as fh:
                        totals["marked_edges"] += len(fh.read().split())
            except Exception as exc:  # an output the check cannot read
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append({"instance_seed": inst.seed, "cmd": op.cmd,
                             "error": err})

    attempted = len(results)
    failed = len(failures)
    commands = {cmd: timing_stats(v) for cmd, v in times.items()}
    pipe = timing_stats(list(pipeline.values()))
    report = {
        "setup": setup,
        "busy_s": busy_s,
        "instances": len(pipeline),
        "commands": commands,
        "pipeline": pipe,
        "edges_out": totals["edges_out"],
        "marked_edges": totals["marked_edges"],
        "fail_ratio": failed / attempted,
        "failures": failures,
    }
    if tracer is None:
        red = commands["reduce"]
        metrics = {
            "setup_s": (setup["import_s"] + setup["build_s"], "s"),
            "reduce_s.p50": (red["p50"], "s"),
            "reduce_s.tail": (red["tail"], "s"),
            "pipeline_s.p50": (pipe["p50"], "s"),
            "pipeline_s.tail": (pipe["tail"], "s"),
            "ops_per_s": ((attempted - failed) / busy_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": (1 - failed / attempted, "ratio"),
        }
    else:
        from tracer import layer_metrics
        metrics = {key: (val, "s" if key.endswith("_s") else
                         "ratio" if key.endswith("_ratio") else "count")
                   for key, val in layer_metrics(tracer).items()}
        for key in ("contractions", "recursions", "stop.base",
                    "stop.saturated", "edges_out"):
            metrics[f"reducer.{key}"] = (totals[key], "count")
        metrics["tracer.ops_per_s"] = (attempted / busy_s, "1/s")
        report["binding_sites"] = tracer.binding_sites()
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": report}


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "cutmimic", "__init__.py")):
        print(f"error: no cutmimic sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    out["report"]["provenance"] = provenance(args.workload, args.seed,
                                             args.seconds, args.trace)
    for key, (val, unit) in out["metrics"].items():
        print(f"{key} {val:.6g} {unit}")
    print(json.dumps({"report": out["report"]}, sort_keys=True))
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {key: {"value": val, "unit": unit}
                    for key, (val, unit) in out["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
