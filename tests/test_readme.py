"""README.md's Python examples, run as doctests, so that an API change
cannot leave them stale.

    PYTHONPATH=src python -m pytest tests/test_readme.py
"""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run():
    failures, tried = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert tried > 0 and failures == 0
