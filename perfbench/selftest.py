"""The benchmark's own test: the tracer sees every span of the metric table
on the workload that should exercise it, and tracing changes no output.

    python3 perfbench/selftest.py

Each workload runs a few instances twice, untraced and traced, in one
process. Every file the ops write (networks, mark lists, verify and
kernelize answers, reduction traces) must be byte-identical between the
two passes, and every op must pass its output check. Takes about 20 s.
"""

import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)

from cutmimic.frontend import cli  # noqa: E402

import tracer as tracing  # noqa: E402

# (workload, seed, instances) and the spans that must fire on it. Seed 1's
# first 48 corpus-small instances include a recursion into a sparse set.
CASES = {
    "corpus-small": (1, 48, (
        "netgraph.degree2_reduce", "netgraph.contract_edge",
        "netgraph.recursive_instance", "tester.exact_tester", "marker.mark",
        "oracles.verify_mimicking", "oracles.min_multiway_cut",
        "oracles.min_multicut", "oracles.min_cut_side",
        "frontend.parse_network", "frontend.format_network",
        "reducer.mimicking_network")),
    "dense-k2": (1, 2, (
        "netgraph.degree2_reduce", "netgraph.contract_edge",
        "tester.exact_tester", "marker.mark", "matroids.gammoid_rep",
        "matroids.graphic_rep", "matroids.build_edge_cut_gammoid_digraph",
        "repset.representative_set_product",
        "ffield.select_independent_columns", "ffield.kronecker_column",
        "frontend.parse_network", "frontend.format_network",
        "reducer.mimicking_network")),
    "sparse-chains": (1, 2, (
        "netgraph.degree2_reduce", "netgraph.contract_edge",
        "frontend.parse_network", "frontend.format_network",
        "reducer.mimicking_network")),
}


def require(ok: bool, *context) -> None:
    """A check that stays in force under `python -O`."""
    if not ok:
        raise AssertionError(context)


def outputs(instances) -> dict[str, bytes]:
    got = {}
    for inst in instances:
        for op in inst.ops:
            for path in (op.out, op.trace):
                if path is not None:
                    with open(path, "rb") as fh:
                        got[os.path.basename(path)] = fh.read()
                    os.remove(path)
    return got


def check_workload(name: str, workdir: str) -> set[str]:
    seed, count, expected = CASES[name]
    work, instances, _ = run.prepare(name, seed, count, workdir)
    results, _ = run.execute(cli, work, instances)
    for inst, op, _, code, err in results:
        require(err is None and code in op.expect, name, inst.seed, op.cmd,
                code, err)
        require(work.check(inst, op) is None, name, inst.seed, op.cmd)
    plain = outputs(instances)

    tracer = tracing.Tracer()
    results, _ = run.execute(cli, work, instances, tracer=tracer)
    require(all(err is None for *_, err in results), name)
    traced = outputs(instances)
    require(traced == plain, name,
            sorted(k for k in plain if traced.get(k) != plain[k]))

    fired = {s.name for s in tracer.spans}
    missing = set(expected) - fired
    require(not missing, name, sorted(missing))
    metrics = tracing.layer_metrics(tracer)
    for span in expected:
        if "self_s" in tracing.SPAN_METRICS[span]:
            require(metrics[f"{span}.self_s"] > 0, name, span)
    return fired


def check_binding_sites() -> None:
    """`mark` is reached through reducer's and frontend's own bindings;
    both must be wrapped, and uninstall must restore the originals."""
    import cutmimic.frontend
    import cutmimic.marker
    import cutmimic.reducer
    original = cutmimic.marker.mark
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sites = tracer.binding_sites()
        for site in ("cutmimic.marker.mark", "cutmimic.reducer.mark",
                     "cutmimic.frontend.mark",
                     "cutmimic.reducer.degree2_reduce"):
            require(site in sites, site)
        require(cutmimic.reducer.mark is not original)
    finally:
        tracer.uninstall()
    require(cutmimic.reducer.mark is original)
    require(cutmimic.frontend.mark is original)


def main() -> int:
    check_binding_sites()
    fired: set[str] = set()
    workdir = os.path.join(run.ROOT, ".perfbench_work",
                           f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in CASES:
            fired |= check_workload(name, workdir)
            print(f"ok {name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # a benchmark run still uses it
    table = {span for _, _, span in tracing.TRACED}
    require(table <= fired, sorted(table - fired))
    print("ok: every span fired and traced outputs match untraced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
