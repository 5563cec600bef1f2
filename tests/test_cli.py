import argparse
import errno
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

import perimetric
from perimetric import errors
from perimetric.cli import _parser, main
from perimetric.generator import GeneratorConfig, generate_synthetic_tenant
from perimetric.ingestion import resolve_effective_grants, serialize_snapshot
from perimetric.metric import effective_distance
from perimetric.perimeter import assess_principal
from perimetric.ranking import rank_spns

from helpers import invoke

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = FIXTURES.parent.parent
COUNTEREXAMPLE = FIXTURES / "counterexample_family.json"


def _cli_env(unbuffered=False):
    """The environment of a fresh interpreter that imports this checkout's sources.

    Stdout is block-buffered, as from a shell, unless `unbuffered` is set.
    """
    src = str(Path(perimetric.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _run_cli(args, unbuffered=False, python_flags=(), **kwargs):
    """Run `python -m perimetric.cli ARGS` in a fresh interpreter, on this checkout's sources."""
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "perimetric.cli", *args], env=_cli_env(unbuffered), timeout=60, **kwargs
    )


def _snapshot_text(**overrides):
    doc = {
        "version": 1,
        "hierarchy": [
            {"id": "root", "kind": "tenant_root"},
            {"id": "sub-1", "kind": "subscription", "parent": "root"},
            {"id": "sub-2", "kind": "subscription", "parent": "root"},
        ],
        "groups": [],
        "spns": [],
        "assignments": [],
    }
    doc.update(overrides)
    return json.dumps(doc)


def _two_cluster_text():
    hierarchy = [
        {"id": "root", "kind": "tenant_root"},
        {"id": "mg", "kind": "management_group", "parent": "root"},
        {"id": "sub-a", "kind": "subscription", "parent": "mg"},
        {"id": "sub-b", "kind": "subscription", "parent": "mg"},
        {"id": "rg-a", "kind": "resource_group", "parent": "sub-a"},
        {"id": "rg-b", "kind": "resource_group", "parent": "sub-b"},
    ]
    assignments = []
    for side in "ab":
        for i in range(3):
            hierarchy.append({"id": f"res-{side}{i}", "kind": "resource", "parent": f"rg-{side}"})
            assignments.append({
                "principal": "svc-dispersed",
                "action": f"{side}{i}",
                "access": "read",
                "scope": f"res-{side}{i}",
            })
    return _snapshot_text(hierarchy=hierarchy, spns=["svc-dispersed"], assignments=assignments)


def test_scan_empty_snapshot():
    result = invoke(["scan", "-"], input=_snapshot_text())
    assert result.exit_code == 0
    assert result.output == "spn,n,blast_radius,band,perimeter,mean_distance,spread_ratio,ultracycle\n"


def test_scan_tenant_wide_write_tops_ranking():
    text = _snapshot_text(
        spns=["svc-big", "svc-small"],
        assignments=[
            {"principal": "svc-big", "action": "WriteBlob", "access": "write", "scope": "sub-1"},
            {"principal": "svc-big", "action": "WriteSecret", "access": "write", "scope": "sub-2"},
            {"principal": "svc-small", "action": "ReadBlob", "access": "read", "scope": "sub-1"},
        ],
    )
    result = invoke(["scan", "-"], input=text)
    assert result.exit_code == 0
    first_row = result.output.splitlines()[1]
    assert first_row.startswith("svc-big,2,1.000000,tenant:write,")


def test_scan_csv_prints_ids_verbatim_on_a_pipe():
    # an id that differs from another only by an ANSI escape must not print as that other id
    spns = ["evil\x1b[31mred", "evilred"]
    text = _snapshot_text(
        spns=spns,
        assignments=[
            {"principal": spn, "action": "ReadBlob", "access": "read", "scope": "sub-1"} for spn in spns
        ],
    )
    result = _run_cli(["scan", "--format", "csv", "-"], input=text.encode("utf-8"), capture_output=True)
    assert result.returncode == 0, result.stderr
    printed = [row.split(",")[0] for row in result.stdout.decode("utf-8").splitlines()[1:]]
    assert sorted(printed) == sorted(spns)


def test_scan_csv_quotes_ids_by_one_rule_on_every_python():
    # "\r" is quoted and NUL written bare on every interpreter, though csv.writer leaves
    # "\r" bare before Python 3.13 and raises on NUL under 3.10
    spns = ["a\0b", "c\rd", "e\r\nf", 'g"h', "i,j"]
    result = _run_cli(["scan", "-"], input=_snapshot_text(spns=spns).encode("utf-8"), capture_output=True)
    assert result.returncode == 0, result.stderr
    figures = b",0,0.000000,-,0.000000,0.000000,1.000000,false\n"
    assert result.stdout == b"spn,n,blast_radius,band,perimeter,mean_distance,spread_ratio,ultracycle\n" + (
        b"a\0b" + figures + b'"c\rd"' + figures + b'"e\r\nf"' + figures + b'"g""h"' + figures + b'"i,j"' + figures
    )


def test_scan_zero_grant_spn_has_no_band():
    result = invoke(["scan", "-"], input=_snapshot_text(spns=["svc-idle"]))
    assert "svc-idle,0,0.000000,-,0.000000,0.000000,1.000000,false" in result.output


def test_scan_ordering_matches_rank_spns():
    snapshot = generate_synthetic_tenant(
        GeneratorConfig(seed=5, tight_spns=6, dispersed_spns=6, mixed_spns=6)
    )
    tree = snapshot.native_tree()
    risks = []
    for spn in snapshot.spns:
        grants = resolve_effective_grants(spn, snapshot)
        risks.append(assess_principal(spn, grants, effective_distance(grants, tree)))
    expected = [r.spn for r in rank_spns(risks)]
    result = invoke(["scan", "-"], input=serialize_snapshot(snapshot))
    got = [line.split(",")[0] for line in result.output.splitlines()[1:]]
    assert got == expected


def test_scan_json_exposes_exact_values():
    text = _snapshot_text(
        spns=["svc-1"],
        assignments=[
            {"principal": "svc-1", "action": "ReadBlob", "access": "read", "scope": "sub-1"},
            {"principal": "svc-1", "action": "ReadSecret", "access": "read", "scope": "sub-2"},
        ],
    )
    result = invoke(["scan", "-", "--format", "json"], input=text)
    doc = json.loads(result.output)
    record = doc["records"][0]
    assert record["blast_radius_exact"] == "1/2"
    assert record["perimeter_exact"] == "1"
    assert record["ultracycle"] is True
    assert record["ultracycle_distance"] == "1/2"


def test_scan_rejects_malformed_input():
    result = invoke(["scan", "-"], input="{ not json")
    assert result.exit_code == 2
    assert "error:" in result.stderr


@pytest.mark.parametrize(
    "payload, named",
    [
        (b'{"version": 1, "hierarchy": [{"id": "root", "kind": "tenant_root"}], "spns": "abc"}', "'spns'"),
        (b'{"version": 1, "hierarchy": [{"id": "root", "kind": "tenant_root"}], "spns": NaN}', "'spns'"),
        (b'{"version": 1, "hierarchy": [{"id": "r\xff", "kind": "tenant_root"}]}', "UTF-8"),
        (b'{"version": 1, "hierarchy": [{"id": "root", "kind": "tenant_root"}], "spns": ["a"], "spns": ["b"]}',
         "duplicate key 'spns'"),
        (b'{"version": 1, "hierarchy": ' + b"[" * 100_000, "nested too deeply"),
        (b'{"version": 1' + b"0" * 5000 + b', "hierarchy": [{"id": "root", "kind": "tenant_root"}]}',
         "too many digits"),
        (b'{"version": 1, "hierarchy": [{"id": "root", "kind": "tenant_root"}], "spns": ["svc-\\ud800"]}',
         "lone surrogate"),
        (b'{"version": 1, "hierarchy": [{"id": "root", "kind": "tenant_root"}], "spns": ["svc"],'
         b' "assignments": [{"principal": [], "action": "a", "access": "read", "scope": "root"}]}', "'principal'"),
        (b'{"version": 1, "hierarchy": [{"id": "root", "kind": "tenant_root"}], "spns": ["svc"],'
         b' "assignments": [{"principal": "svc", "action": "a", "access": "read", "scope": {}}]}', "'scope'"),
        (b'{"version": 1, "hierarchy": [{"id": "root", "kind": "tenant_root"},'
         b' {"id": "s", "kind": "subscription", "parent": "root"},'
         b' {"id": "s2", "kind": "subscription", "parent": "root"}],'
         b' "alternates": [{"name": "a", "parents": {"s2": "s"}}]}',
         "alternate 'a': subscription 's2' cannot attach to subscription 's'"),
    ],
    ids=["spns-string", "spns-nan", "non-utf8", "duplicate-key", "deep-nesting", "huge-integer",
         "lone-surrogate", "principal-list", "scope-object", "alternate-overlay"],
)
def test_scan_mistyped_input_exits_2_without_traceback(payload, named):
    result = _run_cli(["scan", "-"], input=payload, capture_output=True)
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert result.stderr.decode().startswith("error: ")
    assert len(result.stderr.decode().splitlines()) == 1
    assert named in result.stderr.decode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "command", [["scan"], ["check-family"], ["bands"], ["explain", "svc-counterexample"]],
    ids=["scan", "check-family", "bands", "explain"],
)
def test_stdout_write_failure_exits_3_without_traceback(command, unbuffered):
    # every write to /dev/full fails with ENOSPC; a buffered stdout fails again at exit
    verb, *rest = command
    with open("/dev/full", "wb") as full:
        result = _run_cli([verb, str(COUNTEREXAMPLE), *rest], unbuffered, stdout=full, stderr=subprocess.PIPE)
    stderr = result.stderr.decode()
    assert result.returncode == 3
    assert "Traceback" not in stderr
    assert stderr.startswith("error: ")
    assert len(stderr.splitlines()) == 1


CLOSED_STDIN = b"error: argument SNAPSHOT: can't read '-': standard input is closed\n"
MISSING_PATH = b"error: argument SNAPSHOT: can't read 'no-such-snapshot.json': No such file or directory\n"


@pytest.mark.parametrize(
    "args, fd, code, stderr",
    [
        (["scan", str(COUNTEREXAMPLE)], 1, 0, b""),
        (["check-family", str(COUNTEREXAMPLE)], 1, 1, b""),
        (["scan", "no-such-snapshot.json"], 2, 2, b""),
        (["scan", "no-such-snapshot.json"], 1, 2, MISSING_PATH),
        (["scan", "-"], 0, 2, CLOSED_STDIN),
        (["bands", "-"], 0, 2, CLOSED_STDIN),
        (["check-family", "-"], 0, 2, CLOSED_STDIN),
        (["explain", "-", "svc-counterexample"], 0, 2, CLOSED_STDIN),
    ],
    ids=[
        "scan-stdout", "check-family-stdout", "missing-path-stderr", "missing-path-stdout",
        "scan-stdin", "bands-stdin", "check-family-stdin", "explain-stdin",
    ],
)
def test_a_closed_stream_keeps_the_exit_code(args, fd, code, stderr):
    # with descriptor 0, 1 or 2 closed the interpreter starts with sys.stdin, sys.stdout or sys.stderr set to None
    result = _run_cli(args, capture_output=True, preexec_fn=lambda: os.close(fd))
    assert result.returncode == code
    assert (result.stdout, result.stderr) == (b"", stderr)


def test_an_unexpected_error_with_stdout_closed_exits_3(monkeypatch):
    # in process: print writes nothing to a None stdout, and the failure path must not flush it
    def broken(*args):
        raise RuntimeError("no ranking")

    monkeypatch.setattr("perimetric.cli.rank_spns", broken)
    monkeypatch.setattr(sys, "stdout", None)
    with redirect_stderr(io.StringIO()) as stderr:
        with pytest.raises(SystemExit) as exit_info:
            main(["scan", str(COUNTEREXAMPLE)])
    assert (exit_info.value.code, stderr.getvalue()) == (3, "error: unexpected RuntimeError: no ranking\n")


def test_an_unexpected_error_at_the_program_entry_with_stdout_closed_exits_3():
    program = (
        "import sys, perimetric.cli as cli\n"
        "def broken(*args):\n    raise RuntimeError('no ranking')\n"
        f"cli.rank_spns = broken\nsys.argv = ['perimetric', 'scan', {str(COUNTEREXAMPLE)!r}]\ncli.main()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", program], env=_cli_env(), capture_output=True, timeout=60,
        preexec_fn=lambda: os.close(1),
    )
    assert (result.returncode, result.stdout) == (3, b"")
    assert result.stderr == b"error: unexpected RuntimeError: no ranking\n"


def test_a_path_is_named_as_its_repr():
    # the error line keeps both spaces and shows the ESC byte escaped, so a path cannot restyle the terminal
    result = _run_cli(["scan", "my  \x1b[1mtenant.json"], capture_output=True)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == b"error: argument SNAPSHOT: can't read 'my  \\x1b[1mtenant.json': No such file or directory\n"


class _FullStdout(io.StringIO):
    """A stdout that fails every write, as a full disk does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "args, code",
    [
        (["scan", str(COUNTEREXAMPLE)], 0),
        (["check-family", str(COUNTEREXAMPLE)], 1),
        (["scan", "--format", "xml", str(COUNTEREXAMPLE)], 2),
        (["scan", str(COUNTEREXAMPLE)], 3),  # into a stdout that fails every write
    ],
    ids=["scan", "check-family", "usage-error", "failed-write"],
)
def test_main_runs_without_the_collector_and_restores_its_state(args, code, collecting, monkeypatch):
    seen = []
    parse = perimetric.cli.parse_snapshot
    monkeypatch.setattr("perimetric.cli.parse_snapshot", lambda data: seen.append(gc.isenabled()) or parse(data))
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if collecting else gc.disable)()
    try:
        with redirect_stdout(_FullStdout() if code == 3 else io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                main(args)
                exit_code = 0
            except SystemExit as exc:
                exit_code = exc.code
        assert (exit_code, gc.isenabled()) == (code, collecting)
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([] if code == 2 else [False])
    assert gc.get_freeze_count() == frozen  # only the program entry, main() with no arguments, freezes


# main() as the console script calls it, and as `python -m perimetric.cli` runs the module
_ENTRIES = {
    "script": "from perimetric.cli import main; main()",
    "module": "import runpy; runpy.run_module('perimetric.cli', run_name='__main__')",
}


@pytest.mark.parametrize("dev", [False, True], ids=["plain", "dev-mode"])
@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize(
    "args, code",
    [(["scan", str(FIXTURES / "golden_tenant.json")], 0), (["check-family", str(FIXTURES / "golden_family.json")], 1)],
    ids=["scan", "check-family"],
)
def test_the_program_entry_freezes_the_collector(args, code, entry, dev):
    # the freeze moves every tracked object into the permanent generation, which the collections
    # at interpreter exit skip; development mode keeps them, so a file left open in a cycle is
    # still reported, and in-process calls never freeze (test above)
    program = (
        f"import gc, sys\nsys.argv = ['perimetric', *{args!r}]\ntry:\n    {_ENTRIES[entry]}\n"
        "finally:\n    sys.stderr.write(f'frozen {gc.get_freeze_count()}\\n')\n"
    )
    flags = ("-X", "dev") if dev else ()
    result = subprocess.run([sys.executable, *flags, "-c", program], env=_cli_env(), capture_output=True, timeout=60)
    word, count = result.stderr.decode().split()
    assert (word, int(count) > 0) == ("frozen", not dev)
    assert result.returncode == code
    assert result.stdout.decode() == invoke(args).stdout


@pytest.mark.parametrize("output", ["csv", "json"])
def test_a_scan_leaves_as_much_cyclic_garbage_on_a_larger_tenant(output):
    # with the collector off, a reference cycle per record would hold its memory until the
    # command ends; here only the argument parser and the JSON encoder leave cycles behind
    golden = (FIXTURES / "golden_tenant.json").read_text()
    larger = serialize_snapshot(
        generate_synthetic_tenant(GeneratorConfig(seed=3, tight_spns=40, dispersed_spns=40, mixed_spns=40))
    )
    assert len(json.loads(larger)["spns"]) >= 5 * len(json.loads(golden)["spns"])
    was = gc.isenabled()
    gc.disable()  # so no automatic collection runs between the command and the count
    try:
        counts = []
        for text in (golden, golden, larger):  # the first run also fills caches
            gc.collect()
            assert invoke(["scan", "--format", output, "-"], input=text).exit_code == 0
            counts.append(gc.collect())
    finally:
        if was:
            gc.enable()
    assert counts[1] == counts[2]


def test_scan_never_imports_the_generator():
    result = _run_cli(["scan", str(COUNTEREXAMPLE)], python_flags=("-X", "importtime"), capture_output=True)
    assert result.returncode == 0
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.decode().splitlines()]
    assert "perimetric.ingestion" in imported
    assert "perimetric.generator" not in imported
    assert not [name for name in imported if name == "click" or name.startswith("click.")]
    # the package still resolves the generator's names on first use
    probe = (
        "import sys, perimetric; assert 'perimetric.generator' not in sys.modules; "
        "from perimetric import GeneratorConfig, generate_synthetic_tenant; "
        "import perimetric.generator as g; "
        "assert (GeneratorConfig, generate_synthetic_tenant) == (g.GeneratorConfig, g.generate_synthetic_tenant)"
    )
    src = str(Path(perimetric.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)


def test_unexpected_error_exits_3_with_one_line(monkeypatch):
    def broken(*args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr("perimetric.cli.rank_spns", broken)
    result = invoke(["scan", str(COUNTEREXAMPLE)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "error: unexpected RuntimeError: first line second line\n"


def test_a_failure_before_the_command_exits_3(monkeypatch):
    def broken():
        raise RuntimeError("no parser")

    monkeypatch.setattr("perimetric.cli._parser", broken)
    result = invoke(["scan", str(COUNTEREXAMPLE)])
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == "error: unexpected RuntimeError: no parser\n"


_ERROR_CLASSES = sorted(
    (cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, errors.PerimetricError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("error", _ERROR_CLASSES, ids=[cls.__name__ for cls in _ERROR_CLASSES])
def test_exit_code_follows_the_error_class(error, monkeypatch):
    # the input's mistakes exit 2 and every other package error, an invariant breach, exits 3
    def broken(data):
        raise error(f"raised as {error.__name__}")

    monkeypatch.setattr("perimetric.cli.parse_snapshot", broken)
    result = invoke(["scan", str(COUNTEREXAMPLE)])
    assert result.exit_code == (2 if issubclass(error, errors.InputError) else 3)
    assert (result.stdout, result.stderr) == ("", f"error: raised as {error.__name__}\n")


@pytest.mark.parametrize(
    "args, name",
    [
        (["scan", str(COUNTEREXAMPLE)], "assess_principal"),
        (["bands", str(COUNTEREXAMPLE)], "band_report"),
        (["check-family", str(COUNTEREXAMPLE)], "check_ultrametricity"),
        (["explain", str(COUNTEREXAMPLE), "svc-counterexample"], "assess_principal"),
    ],
    ids=["scan", "bands", "check-family", "explain"],
)
def test_package_error_in_a_command_exits_3_with_its_message(args, name, monkeypatch):
    def broken(*_, **__):
        raise errors.UnbandableRadius("radius 3/7\nis in no band")

    monkeypatch.setattr(f"perimetric.cli.{name}", broken)
    result = invoke(args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "error: radius 3/7 is in no band\n"


@pytest.mark.parametrize(
    "args, names",
    [
        (["scan", "no-such-snapshot.json"], "no-such-snapshot.json"),
        (["bands", str(FIXTURES)], str(FIXTURES)),
        (["scna", str(COUNTEREXAMPLE)], "scna"),
        (["--bogus", "scan", str(COUNTEREXAMPLE)], "--bogus"),
        (["check-family", "--limit", "0", str(COUNTEREXAMPLE)], "--limit"),
        (["scan", "--format", "xml", str(COUNTEREXAMPLE)], "xml"),
        (["explain"], "SNAPSHOT"),
        (["check-family", "--lim", "5", str(COUNTEREXAMPLE)], "--lim"),
    ],
    ids=["missing-path", "directory-path", "unknown-command", "group-option", "limit-zero", "bad-choice",
         "missing-argument", "abbreviated-option"],
)
def test_usage_errors_end_in_one_error_line(args, names):
    result = invoke(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1
    assert names in result.stderr


def test_usage_error_after_the_snapshot_leaves_no_file_open():
    # the snapshot is opened only in the command body, so the missing SPN fails first
    result = _run_cli(["explain", str(COUNTEREXAMPLE)], python_flags=("-X", "dev", "-W", "error"), capture_output=True)
    stderr = result.stderr.decode()
    assert result.returncode == 2
    assert result.stdout == b""
    assert stderr.splitlines() == ["error: the following arguments are required: SPN"]
    assert "ResourceWarning" not in stderr


def test_help_is_unchanged_by_the_error_line():
    for args in (["--help"], ["scan", "--help"]):
        result = invoke(args)
        assert result.exit_code == 0
        assert result.stdout.startswith("usage: perimetric ")
    bare = invoke([])  # a bare command prints its help on stderr and exits 2
    assert bare.exit_code == 2 and bare.stdout == ""
    assert bare.stderr.startswith("usage: perimetric ")
    assert all(command in bare.stderr for command in ("scan", "bands", "check-family", "generate", "explain"))
    assert "error:" not in bare.output


def test_scan_jobs_flag_is_deterministic():
    snapshot = serialize_snapshot(
        generate_synthetic_tenant(GeneratorConfig(seed=9, tight_spns=8, dispersed_spns=8))
    )
    serial = invoke(["scan", "-"], input=snapshot)
    threaded = invoke(["scan", "-", "--jobs", "4"], input=snapshot)
    assert serial.output == threaded.output


def test_bands_two_archetypes_and_determinism():
    snapshot = serialize_snapshot(
        generate_synthetic_tenant(GeneratorConfig(seed=2, tight_spns=10, dispersed_spns=10))
    )
    plain = invoke(["bands", "-"], input=snapshot)
    assert plain.exit_code == 0
    regimes = {line.split(",")[-1] for line in plain.output.splitlines()[1:]}
    assert {"Tight", "Dispersed"} <= regimes

    anon_a = invoke(["bands", "-", "--anonymize", "--seed", "42"], input=snapshot)
    anon_b = invoke(["bands", "-", "--anonymize", "--seed", "42"], input=snapshot)
    assert anon_a.output == anon_b.output
    assert anon_a.output.splitlines()[1].startswith("I,")


def test_bands_canonical_labels_without_anonymize():
    text = _snapshot_text(
        spns=["svc-1", "svc-2"],
        assignments=[
            {"principal": "svc-1", "action": "WriteBlob", "access": "write", "scope": "sub-1"},
            {"principal": "svc-1", "action": "WriteSecret", "access": "write", "scope": "sub-2"},
            {"principal": "svc-2", "action": "ReadBlob", "access": "read", "scope": "sub-1"},
            {"principal": "svc-2", "action": "ReadSecret", "access": "read", "scope": "sub-2"},
        ],
    )
    result = invoke(["bands", "-"], input=text)
    lines = result.output.splitlines()
    assert lines[1].startswith("tenant:write,1,")
    assert lines[2].startswith("tenant:read,1,")


def test_check_family_without_alternates_exits_2():
    result = invoke(["check-family", "-"], input=_snapshot_text(spns=["svc-1"]))
    assert result.exit_code == 2


def test_check_family_counterexample_exits_1_with_exact_values():
    result = invoke(["check-family", str(COUNTEREXAMPLE)])
    assert result.exit_code == 1
    assert "d3(x, y) = 1" in result.output
    assert "d3(y, z) = 1" in result.output
    assert "d3(x, z) = 2" in result.output
    assert "fall back to the native hierarchy" in result.output
    # the write y sits with x under rg-1, so the raw native distances break too
    assert "  note: raw pairwise distances violate under the native tree alone" in result.output


def test_check_family_all_read_counterexample_has_no_note():
    doc = json.loads(COUNTEREXAMPLE.read_text())
    for assignment in doc["assignments"]:
        assignment["access"] = "read"
    result = invoke(["check-family", "-"], input=json.dumps(doc))
    assert result.exit_code == 1  # the infimum still breaks: d3(x, z) = 4 against 1 and 1
    assert "d3(x, z) = 4" in result.output
    assert "note:" not in result.output


def test_check_family_identical_alternate_is_clean():
    text = _snapshot_text(
        spns=["svc-1"],
        alternates=[{"name": "same", "parents": {}}],
        assignments=[
            {"principal": "svc-1", "action": "ReadBlob", "access": "read", "scope": "sub-1"},
            {"principal": "svc-1", "action": "ReadSecret", "access": "read", "scope": "sub-2"},
            {"principal": "svc-1", "action": "ReadTable", "access": "read", "scope": "root"},
        ],
    )
    result = invoke(["check-family", "-"], input=text)
    assert result.exit_code == 0
    assert "no ultrametricity violations" in result.output


# each would forge a report line, or reset the terminal, if printed raw
HOSTILE = {
    "svc-counterexample": "evil\nno ultrametricity violations found\x1bc",
    "y": "y\nultracycle: yes\x1bc",
    "res-y": "res-y\x1bc\nblast radius: 0.000001",
}


def _renamed(doc, names):
    if isinstance(doc, dict):
        return {key: _renamed(value, names) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_renamed(value, names) for value in doc]
    return names.get(doc, doc)


@pytest.mark.parametrize("command, code", [("check-family", 1), ("explain", 0)])
def test_reports_show_unprintable_ids_escaped(command, code):
    outputs = []
    for names in ({}, HOSTILE):
        doc = _renamed(json.loads(COUNTEREXAMPLE.read_text()), names)
        args = [command, "-", *doc["spns"]] if command == "explain" else [command, "-"]
        result = invoke(args, input=json.dumps(doc))
        assert result.exit_code == code
        outputs.append(result.output)
    plain, hostile = outputs
    assert len(hostile.splitlines()) == len(plain.splitlines())
    assert repr(HOSTILE["y"]) in hostile and "\x1b" not in hostile
    for name, raw in HOSTILE.items():
        hostile = hostile.replace(repr(raw), name)
    assert hostile == plain  # each id shows as its repr, and nothing else changes


def test_generate_deterministic_bytes():
    first = invoke(["generate", "--seed", "0", "--mixed", "10"])
    second = invoke(["generate", "--seed", "0", "--mixed", "10"])
    assert first.exit_code == 0
    assert first.output == second.output


def test_generate_pipes_into_scan():
    generated = invoke(["generate", "--seed", "4", "--mixed", "6"])
    result = invoke(["scan", "-"], input=generated.output)
    assert result.exit_code == 0
    assert len(result.output.splitlines()) == 7  # header + one row per SPN


def test_generate_tight_archetype_rows_are_ultracycles():
    generated = invoke(["generate", "--seed", "1", "--tight", "5"])
    result = invoke(["scan", "-"], input=generated.output)
    rows = result.output.splitlines()[1:]
    assert len(rows) == 5
    assert all(row.endswith(",1.000000,true") for row in rows)


def test_generate_passes_every_option_to_the_generator():
    # each option gets its own value, none of them a default, so one wired to the wrong field shows
    fields = {
        "seed": 11,
        "management_groups": 2,
        "subscriptions": 5,
        "resource_groups_per_subscription": 3,
        "resources_per_resource_group": 4,
        "parts_per_resource": 6,
        "tight_spns": 7,
        "dispersed_spns": 8,
        "mixed_spns": 9,
    }
    flags = ("--seed", "--management-groups", "--subscriptions", "--resource-groups", "--resources", "--parts",
             "--tight", "--dispersed", "--mixed")
    result = invoke(["generate", *(arg for flag, value in zip(flags, fields.values()) for arg in (flag, str(value)))])
    assert result.exit_code == 0
    assert result.output == serialize_snapshot(generate_synthetic_tenant(GeneratorConfig(**fields)))


def test_generate_rejects_invalid_config():
    result = invoke(["generate", "--subscriptions", "1", "--dispersed", "2"])
    assert result.exit_code == 2
    result = invoke(["generate", "--subscriptions", "0"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: at least one subscription is required\n"


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
def test_generate_refuses_a_seed_outside_its_range(seed):
    # random.Random seeds from abs(seed), so a negative seed would print another seed's tenant
    result = invoke(["generate", "--seed", seed])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: seed must be an integer from 0 to 2**64 - 1\n"


def test_an_oversized_generate_exits_2_before_drawing():
    # about 10**10 nodes: the config refuses them from its counts, so neither call allocates a tenant
    message = "the tenant would have 11,010,100,004 nodes, above the cap of 1,000,000"
    counts = {"subscriptions": 100_000, "resource_groups_per_subscription": 100,
              "resources_per_resource_group": 100, "parts_per_resource": 10}
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        with pytest.raises(errors.InvalidConfig, match=f"^{message}$"):
            GeneratorConfig(**counts)
        result = invoke(["generate", "--subscriptions", "100000", "--resource-groups", "100",
                         "--resources", "100", "--parts", "10"])
        # a node count of about 16,000 digits, more than str() writes on 3.11 and later
        huge = "1" + "0" * 4000
        beyond = invoke(["generate", "--subscriptions", huge, "--resource-groups", huge, "--resources", huge,
                         "--parts", huge])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {message}\n")
    assert (beyond.exit_code, beyond.stdout) == (2, "")
    assert beyond.stderr == "error: the tenant would have more than 10**18 nodes, above the cap of 1,000,000\n"
    assert peak < 2**20


def test_each_generator_field_is_the_dest_of_one_generate_option():
    # generate builds its GeneratorConfig from these dests, so a field with no option would crash it
    commands = next(action for action in _parser()._actions if isinstance(action, argparse._SubParsersAction))
    dests = [
        action.dest
        for action in commands.choices["generate"]._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]
    assert sorted(dests) == sorted(field.name for field in fields(GeneratorConfig))


@pytest.mark.parametrize(
    "options, digest",
    [
        ("--tight 4", "c97ee58700d89cd198c433c746fb005202f6452f05fbf9c8a322614654ece64d"),
        ("--dispersed 4", "d19e4a5382173ca13c1e768b685c116e3e77030d99377cd8bad3eff7928a7332"),
        ("--mixed 4", "1cb7272ee1e87b4a21b85331076f76381bfb1542fa75cb5da5f18fb0da94e4f4"),
        (
            "--management-groups 2 --subscriptions 5 --resource-groups 3 --resources 4 --parts 6"
            " --tight 7 --dispersed 8 --mixed 9",
            "0e5c0c353ac7ab4197c9861cb7e485caddaf925fefd8a49632fc762bed1d24f8",
        ),
        (  # 4 of the 40 groups sit at the depth cap, so the cap decides later parent draws
            "--management-groups 40 --subscriptions 30 --resource-groups 2 --resources 3 --parts 2"
            " --tight 20 --dispersed 10 --mixed 10",
            "a8ccb74fb894c1603dec7cd757a31d6a7fa9cc9fa4f45d94a00feb332769e2d2",
        ),
    ],
)
def test_generate_bytes_are_pinned(options, digest):
    # the generator's draws in another order, or from another pool, change these bytes
    result = invoke(["generate", "--seed", "3", *options.split()])
    assert result.exit_code == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == digest


def test_explain_singleton_grant():
    text = _snapshot_text(
        spns=["svc-1"],
        assignments=[
            {"principal": "svc-1", "action": "ReadBlob", "access": "read", "scope": "sub-1"},
        ],
    )
    result = invoke(["explain", "-", "svc-1"], input=text)
    assert result.exit_code == 0
    assert "tour: single grant, length 0" in result.output
    assert "blast radius: 0.000000" in result.output


def test_explain_unknown_spn_exits_2():
    result = invoke(["explain", "-", "ghost"], input=_snapshot_text())
    assert result.exit_code == 2


def test_explain_ultracycle_edges_share_one_distance():
    text = _snapshot_text(
        spns=["svc-1"],
        assignments=[
            {"principal": "svc-1", "action": f"Read{i}", "access": "read", "scope": "sub-1"}
            for i in range(4)
        ],
    )
    result = invoke(["explain", "-", "svc-1"], input=text)
    assert result.exit_code == 0
    edges = [line.split("d = ")[1] for line in result.output.splitlines() if "d = " in line]
    assert len(edges) == 4
    assert set(edges) == {"1/32768"}
    assert "ultracycle: yes (xi = 1/32768)" in result.output


def test_explain_dispersed_shows_cluster_then_jump():
    result = invoke(["explain", "-", "svc-dispersed"], input=_two_cluster_text())
    assert result.exit_code == 0
    edges = [
        Fraction(line.split("d = ")[1])
        for line in result.output.splitlines()
        if "d = " in line
    ]
    intra = Fraction(1, 2**17)
    jump = Fraction(1, 2**3)
    assert edges == [intra, intra, jump, intra, intra, jump]
    assert "spread ratio: 0.555601 (13655/24577)" in result.output


@pytest.mark.parametrize(
    "command",
    ["scan --format csv", "scan --format json", "bands --format json",
     "explain spn-one", "explain spn-rw", "explain spn-ultra", "explain spn-zero",
     "check-family tests/fixtures/counterexample_family.json", "check-family tests/fixtures/golden_family.json"],
)
def test_stdout_does_not_depend_on_the_hash_seed(command, monkeypatch):
    # the closed form reads each grant set in set order, which the hash seed decides;
    # explain also sorts its tour off the closure's blocks and calls the closure once
    # per edge, and check-family the family's infimum matrix (it exits 1: both snapshots are dirty)
    verb, *rest = command.split()
    if verb == "check-family":  # its golden command lines name the snapshot from the repository root
        golden_file, args, code = "golden_check_family.json", [verb, *rest], 1
    else:
        golden_file, args, code = "golden_stdout.json", [verb, str(FIXTURES / "golden_tenant.json"), *rest], 0
    golden = json.loads((FIXTURES / golden_file).read_text(encoding="utf-8"))[command]
    for seed in ("0", "1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        result = _run_cli(args, capture_output=True, cwd=ROOT)
        assert result.returncode == code, result.stderr
        assert result.stdout == golden.encode("utf-8"), seed


def test_no_command_reaches_the_per_pair_matrix_kernels(monkeypatch):
    # the per-pair matrix, its scaling and the matrix tour are the oracles' path; every
    # command reads its figures off the closure or the integer matrix, and prints its golden bytes
    def refuse(*_, **__):
        raise AssertionError("a command reached a per-pair matrix kernel")

    for name in ("build_matrix", "try_scale", "nn_tour_flat"):
        monkeypatch.setattr(f"perimetric.kernels.{name}", refuse)
    for golden_file in ("golden_stdout.json", "golden_check_family.json"):
        for command, stdout in json.loads((FIXTURES / golden_file).read_text(encoding="utf-8")).items():
            verb, *rest = command.split()
            if verb == "check-family":
                args, code = [verb, str(ROOT / rest[0])], 1
            else:
                args, code = [verb, str(FIXTURES / "golden_tenant.json"), *rest], 0
            result = invoke(args)
            assert (result.exit_code, result.stdout) == (code, stdout), command
