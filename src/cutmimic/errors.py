"""Shared exception types.

The CLI maps these onto exit codes: InputError -> 2, RefusedError -> 3, and
any other exception -> 4 (an internal failure). InternalError is raised by
the checks that guard outputs; TerminalContractionError signals a logic
error in the caller. Neither should escape a correct pipeline, and both
exit with 4 rather than with a code that could be read as an answer.
"""


class InputError(ValueError):
    """Malformed or inconsistent input (bad file, unknown vertex, bad params)."""


class FieldTooSmallError(InputError):
    """The prime modulus is too small for the requested construction."""


class RefusedError(RuntimeError):
    """Work refused because a desk-scale ceiling would be exceeded.

    The message names the ceiling and the offending size. The exact
    tester's ceiling is a parameter; the other ceilings are fixed, so the
    caller lowers the parameters that set the size instead.
    """


class MarkingRefusedError(RefusedError):
    """Marking tensor dimension above the fixed marker.TENSOR_LIMIT."""


class TerminalContractionError(RuntimeError):
    """Contraction would merge two terminal identities."""


class InternalError(RuntimeError):
    """A check on the program's own output failed: a bug, not bad input."""
