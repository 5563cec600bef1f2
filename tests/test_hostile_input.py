"""Hostile input: mutated snapshots end in a documented exit code, never a traceback.

Each example starts from a valid snapshot, applies one to three byte or
structure mutations and feeds the result on stdin to every command that
reads a snapshot, in process. scan, bands and explain exit 0 or 2 and
check-family 0, 1 or 2; exit 3 (an exception that is not an InputError)
is a failure, and so is any stderr other than one `error:` line.
"""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import invoke, mutate_bytes, mutate_structure

FIXTURES = Path(__file__).parent / "fixtures"
SEEDS = tuple((FIXTURES / name).read_bytes() for name in ("golden_tenant.json", "counterexample_family.json"))

COMMANDS = (
    (("scan", "-"), (0, 2)),
    (("scan", "--format", "json", "-"), (0, 2)),
    (("bands", "-"), (0, 2)),
    (("check-family", "-"), (0, 1, 2)),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_snapshots_exit_with_a_documented_code(data):
    seed = data.draw(st.sampled_from(SEEDS))
    mutate = data.draw(st.sampled_from((mutate_bytes, mutate_structure)))
    text = mutate(data, seed)
    spn = json.loads(seed)["spns"][0]
    for args, allowed in (*COMMANDS, (("explain", "-", spn), (0, 2))):
        result = invoke(args, input=text)
        assert result.exit_code in allowed, (args, result.exit_code, result.stderr)
        if result.exit_code in (0, 1):
            assert result.stderr == "", args
        else:
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, args
