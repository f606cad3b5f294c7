"""The whole paper suite, pinned: ``symred paper-suite --seed 0..4
--format json-lines`` must reproduce ``data/paper_suite_seed0-4.jsonl``
byte for byte.  A change that means to alter a row regenerates the file
with that command and says which rows changed and why."""

from pathlib import Path

from symred.cli import main

GOLDEN = Path(__file__).parent / "data" / "paper_suite_seed0-4.jsonl"


def test_paper_suite_output_matches_golden_file(capsys):
    code = main(["paper-suite", "--seed", "0..4", "--format", "json-lines"])
    out = capsys.readouterr().out
    assert code == 0
    want = GOLDEN.read_text(encoding="utf-8")
    assert out.count("\n") == want.count("\n") == 125
    assert out == want
