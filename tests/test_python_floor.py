"""Every source file parses as the oldest Python that pyproject.toml supports.

Tier-1 runs on one newer interpreter, so syntax added after the floor (an
`except*`, say) would otherwise show only where that version runs.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _floor() -> tuple[int, int]:
    found = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_every_source_parses_at_the_python_floor():
    floor = _floor()
    paths = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


def test_the_floor_check_rejects_newer_syntax():
    floor = _floor()
    ast.parse("match x:\n    case 1:\n        pass\n", feature_version=floor)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
