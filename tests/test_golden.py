"""CLI outputs pinned across commits.

tests/fixtures/expected/ holds the stdout (caseNN.stdout), the exit code
(exit_codes.txt) and every written file of each fixture command in
test_acceptance.cli_cases, recorded once from a known-good build. The
determinism gate compares two runs of the same code; this test compares the
current code against the recording, so any changed byte fails. A change that
means to alter an output re-records the file and says which output and why.
The same holds for the pinned reductions below, whose stdout (NAME.stdout)
and trace (NAME.trace) sit beside the others.
"""

from pathlib import Path

from cutmimic.frontend import cli

from test_acceptance import cli_cases

EXPECTED = Path(__file__).parent / "fixtures" / "expected"


def test_cli_outputs_match_recording(tmp_path, capsys):
    codes = dict(line.split()
                 for line in (EXPECTED / "exit_codes.txt").read_text().splitlines())
    cases = cli_cases(tmp_path)
    assert len(cases) == len(codes) == 10
    for i, (argv, written) in enumerate(cases, start=1):
        name = f"case{i:02d}"
        rc = cli(argv)
        out = capsys.readouterr().out.encode()
        assert rc == int(codes[name]), (name, argv)
        assert out == (EXPECTED / f"{name}.stdout").read_bytes(), (name, argv)
        for fname in written:
            got = (tmp_path / fname).read_bytes()
            assert got == (EXPECTED / fname).read_bytes(), (name, fname)


def test_recorded_reduction_of_fix10_mimics_its_input(capsys):
    # the connectivity rule contracts fix10's clique down to one edge; the
    # recorded output must still mimic its input
    fixtures = EXPECTED.parent
    rc = cli(["verify", str(fixtures / "fix10.net"),
              str(EXPECTED / "case10.stdout")])
    assert (rc, capsys.readouterr().out) == (0, "EQUAL\n")


# (fixture, reduce options): each reaches a step branch that no case above
# does. corpus09 recurses into a sparse set, corpus76 contracts an unmarked
# edge and later saturates when marking keeps every edge, and dense00
# contracts over-connected edges, most of which are loops by their turn.
PINNED_REDUCTIONS = (
    ("corpus09", ["--seed", "9"]),
    ("corpus76", ["--c", "2", "--i0", "2", "--seed", "76"]),
    ("dense00", ["--c", "6", "--i0", "2", "--seed", "0"]),
)


def test_pinned_reductions_match_recording(tmp_path, capsys):
    for name, options in PINNED_REDUCTIONS:
        trace = tmp_path / f"{name}.trace"
        rc = cli(["reduce", str(EXPECTED.parent / f"{name}.net"),
                  "--threshold", "2", *options, "--trace", str(trace)])
        out = capsys.readouterr().out.encode()
        assert rc == 0, name
        assert out == (EXPECTED / f"{name}.stdout").read_bytes(), name
        assert (trace.read_bytes()
                == (EXPECTED / f"{name}.trace").read_bytes()), name
