"""Line budget for the package source: the same behaviour from less code.

Counts what ``find src -name '*.py' | xargs cat | wc -l`` counts, the
newlines in every ``.py`` file under ``src/``.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# src/ held 4,182 lines when the budget was set; a change must stay below it
LINE_BUDGET = 4182


def test_src_stays_below_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    print(f"src/ is {lines} lines (budget: below {LINE_BUDGET})")
    assert lines < LINE_BUDGET
