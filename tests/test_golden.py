"""CLI outputs pinned across commits.

tests/fixtures/expected/ holds the stdout (caseNN.stdout), the exit code
(exit_codes.txt) and every written file of each fixture command in
test_acceptance.cli_cases, recorded once from a known-good build. The
determinism gate compares two runs of the same code; this test compares the
current code against the recording, so any changed byte fails. A change that
means to alter an output re-records the file and says which output and why.
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
