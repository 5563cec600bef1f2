"""Blast-radius ultrametric and TSP data-perimeter analytics for cloud tenants."""

from perimetric.hierarchy import (
    HierarchyNode,
    NodeKind,
    TenantTree,
    build_tree,
    lca,
    lca_level,
)
from perimetric.ingestion import (
    AlternateHierarchy,
    Assignment,
    Group,
    TenantSnapshot,
    parse_snapshot,
    resolve_effective_grants,
    serialize_snapshot,
)
from perimetric.metric import (
    AccessClass,
    DistanceModel,
    EffectiveDistance,
    Grant,
    HierarchyFamily,
    check_ultrametricity,
    distance,
    effective_distance,
    pair_impact,
)
from perimetric.perimeter import (
    PrincipalRisk,
    Tour,
    assess_principal,
    brute_force_tour,
    nn_tour,
)
from perimetric.ranking import (
    Band,
    BandReportRow,
    Regime,
    band_of,
    band_report,
    enumerate_bands,
    rank_spns,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the generator loads on first use, so the analytics commands never import it
    if name in ("GeneratorConfig", "generate_synthetic_tenant"):
        from perimetric import generator

        return getattr(generator, name)
    raise AttributeError(f"module 'perimetric' has no attribute {name!r}")


__all__ = [
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
