"""The library quickstart in README.md runs as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted and not result.failed
