import re
from pathlib import Path

import servicecut


def test_version_matches_pyproject():
    # a regex, not tomllib: Python 3.10, the supported floor, has no tomllib
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
    assert servicecut.__version__ == version
