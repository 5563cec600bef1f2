"""The public surface: every name in perimetric.__all__ resolves through a star import; an unknown one does not.

No public name shadows a module of the package, and the README's library example runs.
"""

import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import perimetric

PUBLIC = [
    "AccessClass",
    "AlternateHierarchy",
    "Assignment",
    "Band",
    "BandReportRow",
    "DistanceModel",
    "EffectiveDistance",
    "GeneratorConfig",
    "Grant",
    "Group",
    "HierarchyFamily",
    "HierarchyNode",
    "NodeKind",
    "PrincipalRisk",
    "Regime",
    "TenantSnapshot",
    "TenantTree",
    "Tour",
    "assess_principal",
    "band_of",
    "band_report",
    "brute_force_tour",
    "build_tree",
    "check_ultrametricity",
    "distance",
    "effective_distance",
    "enumerate_bands",
    "generate_synthetic_tenant",
    "lca",
    "lca_level",
    "nn_tour",
    "pair_impact",
    "parse_snapshot",
    "rank_spns",
    "resolve_effective_grants",
    "serialize_snapshot",
]


def test_star_import_resolves_every_public_name():
    # a fresh interpreter, so the lazily loaded generator names resolve through the star import too
    probe = (
        "import json, perimetric; from perimetric import *; "
        "missing = [name for name in perimetric.__all__ if name not in globals()]; "
        "print(json.dumps({'all': sorted(perimetric.__all__), 'missing': missing}))"
    )
    src = str(Path(perimetric.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, check=True, timeout=60)
    surface = json.loads(result.stdout)
    assert surface["missing"] == []
    assert surface["all"] == PUBLIC


def test_an_unknown_name_is_an_attribute_error():
    # the lazy loader answers only for the generator's names
    with pytest.raises(AttributeError) as info:
        perimetric.nope
    assert str(info.value) == "module 'perimetric' has no attribute 'nope'"


def test_every_module_is_the_package_attribute_of_its_name():
    # a name the package imports under a module's name would hide that module from `perimetric.<name>`
    names = sorted(path.stem for path in Path(perimetric.__file__).parent.glob("*.py") if path.stem != "__init__")
    assert "perimeter" in names
    for name in names:
        importlib.import_module(f"perimetric.{name}")
        assert getattr(perimetric, name) is sys.modules[f"perimetric.{name}"], name


def test_the_readme_library_example_runs():
    # so the README cannot cite a name the package no longer has; it prints one line per SPN
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, printed = {}, io.StringIO()
    with redirect_stdout(printed):
        exec(compile(example, "README.md", "exec"), namespace)
    spns = sorted(line.split(" ", 1)[0] for line in printed.getvalue().splitlines())
    assert spns == sorted(namespace["snapshot"].spns) != []
