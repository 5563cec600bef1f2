"""Exact stdout of scan, bands and explain on a small fixed tenant.

golden_tenant.json is a generated tenant (seed 3, five management groups
nested three deep) plus hand-placed principals: two joined to nested
groups, one with no grants, one with a single grant, an ultracycle of
reads on a level-3 management group (radius 1/128 = 0.0078125, an exact
tie at six digits that rounds to even), a read/write pair on one scope,
and four read clusters that give a spread ratio of 71/128 = 0.5546875
(a tie that rounds up). golden_stdout.json maps each command line to the
bytes it must print.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from perimetric.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
TENANT = FIXTURES / "golden_tenant.json"
GOLDEN = FIXTURES / "golden_stdout.json"

COMMANDS = [
    "scan --format csv",
    "scan --format json",
    "bands --format csv",
    "bands --format json",
    "bands --format csv --anonymize --seed 3",
    "bands --format json --anonymize --seed 3",
    "explain spn-zero",
    "explain spn-one",
    "explain spn-ultra",
    "explain spn-rw",
]


def _stdout(command: str) -> str:
    verb, *rest = command.split()
    result = CliRunner().invoke(main, [verb, str(TENANT), *rest], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.stdout


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_command_is_pinned():
    assert sorted(_golden()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden_bytes(command):
    assert _stdout(command) == _golden()[command]


if __name__ == "__main__":
    # Re-record the golden bytes (only when an output change is intended):
    #   PYTHONPATH=src:tests python tests/test_golden.py
    golden = {command: _stdout(command) for command in COMMANDS}
    GOLDEN.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
