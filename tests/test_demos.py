"""Each narrative script under demos/ runs to the end.

The demos call the library the way a reader would, so a change that
removes or renames something they use fails here.  Each runs in-process
as ``__main__`` and must print something.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "coordinate_transforms.py",
        "degeneration_walkthrough.py",
        "label_geometry.py",
        "relation_translation.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
