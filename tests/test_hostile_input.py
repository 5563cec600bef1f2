"""Hostile input: mutated snapshots end in a documented exit code, never a traceback.

Each example starts from a valid snapshot, applies one to three byte or
structure mutations and feeds the result on stdin to every command that
reads a snapshot, in process. scan, bands and explain exit 0 or 2 and
check-family 0, 1 or 2; exit 3 (an exception no command handles) is a
failure, and so is any stderr other than one `error:` line.
"""

import json
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perimetric.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SEEDS = tuple((FIXTURES / name).read_bytes() for name in ("golden_tenant.json", "counterexample_family.json"))

# Inserted as raw bytes: an unbalanced quote or brace, a JSON null, a float
# literal past the double range and the escape of a lone surrogate.
TOKENS = (b'"', b"{", b"null", b"1e400", b"\\ud800")
VALUES = (None, 0, "", [], {}, True, 10**20)

runner = CliRunner()


def _paths(doc, prefix=()):
    """Every (path to a container, key or index) in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix, key
        yield from _paths(value, (*prefix, key))


def _mutate_structure(data, text: bytes) -> bytes:
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        prefix, key = data.draw(st.sampled_from(paths))
        parent = doc
        for step in prefix:
            parent = parent[step]
        kinds = ("set", "drop", "repeat") if isinstance(parent, list) else ("set", "drop")
        kind = data.draw(st.sampled_from(kinds))
        if kind == "set":
            parent[key] = data.draw(st.sampled_from(VALUES))
        elif kind == "drop":
            del parent[key]
        else:
            parent.insert(key, parent[key])
    return json.dumps(doc).encode()


def _mutate_bytes(data, text: bytes) -> bytes:
    buf = bytearray(text)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(buf)))
        kind = data.draw(st.sampled_from(("flip", "delete", "insert", "duplicate")))
        if kind == "flip" and at < len(buf):
            buf[at] ^= 1 << data.draw(st.integers(0, 7))
        elif kind == "delete":
            del buf[at : at + data.draw(st.integers(1, 8))]
        elif kind == "insert":
            buf[at:at] = data.draw(st.sampled_from(TOKENS))
        elif kind == "duplicate":
            piece = buf[at : at + data.draw(st.integers(1, 64))]
            where = data.draw(st.integers(0, len(buf)))
            buf[where:where] = piece
    return bytes(buf)


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
    mutate = data.draw(st.sampled_from((_mutate_bytes, _mutate_structure)))
    text = mutate(data, seed)
    spn = json.loads(seed)["spns"][0]
    for args, allowed in (*COMMANDS, (("explain", "-", spn), (0, 2))):
        result = runner.invoke(main, list(args), input=text)
        assert result.exit_code in allowed, (args, result.exit_code, result.stderr)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        if result.exit_code in (0, 1):
            assert result.stderr == "", args
        else:
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, args
