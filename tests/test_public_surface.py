"""The public surface: every name in perimetric.__all__ resolves through a star import; an unknown one does not."""

import json
import os
import subprocess
import sys
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
    "blast_radius",
    "brute_force_tour",
    "build_tree",
    "check_ultrametricity",
    "distance",
    "effective_distance",
    "enumerate_bands",
    "generate_synthetic_tenant",
    "infimum_distance",
    "is_ultracycle",
    "lca",
    "lca_level",
    "mean_distance",
    "nn_tour",
    "pair_impact",
    "parse_snapshot",
    "perimeter",
    "rank_spns",
    "resolve_effective_grants",
    "serialize_snapshot",
    "spread_ratio",
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
