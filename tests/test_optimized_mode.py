"""The checks that guard outputs raise InternalError explicitly, so they stay
in force under `python -O`, which strips every `assert` statement. This runs
the tests of those checks in an optimized interpreter.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INTERNAL_ERROR_TESTS = (
    "tests/test_marker.py::test_mark_bound_breach_raises_internal_error",
    "tests/test_marker.py::test_mark_row_drift_raises_internal_error",
    "tests/test_netgraph.py::test_degree2_index_drift_raises_internal_error",
    "tests/test_netgraph.py::test_edit_of_an_unedited_edge_raises_internal_error",
    "tests/test_oracles.py::test_multiway_bad_witness_raises_internal_error",
    "tests/test_reducer.py::"
    "test_overconnected_edge_with_terminal_end_raises_internal_error",
)


def test_internal_error_checks_hold_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", *INTERNAL_ERROR_TESTS],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(INTERNAL_ERROR_TESTS)} passed" in proc.stdout, proc.stdout
