"""The benchmark's tracer names package functions and parameters by string.

perfbench/tracer.py wraps each `(module, function)` of TRACED at every
module that binds it, and its KEEP lambdas read a traced call's arguments by
parameter name. A moved function makes `Tracer.install` raise, and a
renamed parameter silently leaves a counter at zero, so both are checked
here against the package as it stands, and the counters that KEEP feeds
are read off real CLI runs.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from cutmimic.frontend import cli

ROOT = Path(__file__).resolve().parent.parent
FIX01 = str(ROOT / "tests" / "fixtures" / "fix01.net")
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def traced_function(modname, fname):
    return getattr(importlib.import_module(f"cutmimic.{modname}"), fname, None)


def test_every_traced_function_resolves(tracer):
    missing = [(mod, fn) for mod, fn, _ in tracer.TRACED
               if not callable(traced_function(mod, fn))]
    assert not missing, missing


def test_keep_reads_only_real_parameters(tracer):
    by_span = {span: (mod, fn) for mod, fn, span in tracer.TRACED}
    read_any = False
    for span, keep in tracer.KEEP.items():
        assert span in by_span, span
        fn = traced_function(*by_span[span])
        params = inspect.signature(fn).parameters
        # A KEEP lambda reads arguments as a["name"]: its string constants.
        names = {c for c in keep.__code__.co_consts if isinstance(c, str)}
        read_any |= bool(names)
        unknown = names - set(params)
        assert not unknown, (span, sorted(unknown))
    assert read_any


def test_keep_counters_read_nonzero_on_cli_runs(tracer, tmp_path):
    # A KEEP lambda that stops working (a changed return type, say) leaves
    # its counter at zero without failing the run.
    t = tracer.Tracer()
    t.install()
    try:
        for argv in (["mark", FIX01, "--c", "6", "--i0", "2"],
                     ["reduce", FIX01],
                     ["tester", FIX01, "--c", "2"],
                     ["verify", FIX01, FIX01]):
            argv += ["--out", str(tmp_path / "out.txt")]
            assert t.op(lambda: cli(argv)) == 0
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t)
    for name in ("repset.representative_set_product.kept_ratio",
                 "matroids.gammoid_rep.cells",
                 "marker.mark.tensor_dim.max",
                 "netgraph.degree2_reduce.events",
                 # the tester command reaches exact_tester through the
                 # reducer's dispatch, a binding the tracer must wrap
                 "tester.exact_tester.calls",
                 # perfbench/selftest.py needs this span on sparse-chains, so
                 # degree2_reduce builds its contractions with contract_edge
                 "netgraph.contract_edge.calls",
                 # verify's two-block partitions reach min_cut_side, the
                 # traced entry to the flow routine
                 "oracles.min_cut_side.calls"):
        assert metrics[name] > 0, name
