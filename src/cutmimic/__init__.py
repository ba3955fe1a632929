"""Multicut-covering sets and multicut-mimicking networks for undirected
terminal networks, with brute-force oracles for desk-scale verification.

The package root exports the command-line entry point and the exception
classes, which fix the CLI's exit codes. Everything else is imported from
its own module, e.g. `from cutmimic.reducer import mimicking_network`.
"""

from .errors import (
    FieldTooSmallError,
    InputError,
    InternalError,
    MarkingRefusedError,
    RefusedError,
    TerminalContractionError,
)
from .frontend import cli

__version__ = "0.1.0"

__all__ = [
    "FieldTooSmallError",
    "InputError",
    "InternalError",
    "MarkingRefusedError",
    "RefusedError",
    "TerminalContractionError",
    "__version__",
    "cli",
]
