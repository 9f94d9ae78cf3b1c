"""Taxicab Cassini sets: construction, classification, and verification.

The curve K(p, q; r) is the locus where the product of taxicab (L1)
distances to the two foci equals r².  This package builds the curve
exactly as a closed chain of guide-line segments and hyperbola arcs,
classifies points and topology, verifies the guide-family set identities,
and cross-checks everything against a grid-sampling oracle.
"""

from .campaign import (
    CampaignResult,
    run_boundary_campaign,
    run_identity_campaign,
    run_identity_campaigns,
    run_residual_campaign,
    run_topology_campaign,
)
from .cassini import (
    AssemblyError,
    CassiniSpec,
    DegenerateInput,
    GuideSegment,
    HyperbolaArc,
    PointLocation,
    Topology,
    build_curves,
    classify_point,
    critical_radius,
    curve_polyline,
    product_value,
    sample_curve,
    topology,
)
from .characterization import (
    GuideFamily,
    IdentityMode,
    IdentityReport,
    boundary_check,
    grid_points,
    guide_family,
    sampling_box,
    verify_identity,
    verify_identities,
)
from .core import (
    FociFrame,
    GeometryError,
    Isometry,
    Point,
    PointGroup,
    RegionId,
    distance_product,
    distance_products,
    foci_frame,
    standardize,
    taxicab_distance,
)
from .oracle import (
    BoxTooSmall,
    Contour,
    ScalarGrid,
    component_count,
    extract_contour,
    grid_field,
    hausdorff,
)
from .svg import render_svg

# The public API, by layer.  The standard-frame piece builders, the campaign
# fixtures and ORIGIN stay importable from their submodules.
__all__ = [
    # core: taxicab geometry, regions and isometries
    "FociFrame",
    "GeometryError",
    "Isometry",
    "Point",
    "PointGroup",
    "RegionId",
    "distance_product",
    "distance_products",
    "foci_frame",
    "standardize",
    "taxicab_distance",
    # cassini: curve construction, classification and topology
    "AssemblyError",
    "CassiniSpec",
    "DegenerateInput",
    "GuideSegment",
    "HyperbolaArc",
    "PointLocation",
    "Topology",
    "build_curves",
    "classify_point",
    "critical_radius",
    "curve_polyline",
    "product_value",
    "sample_curve",
    "topology",
    # characterization: filled sets and the guide-family identities
    "GuideFamily",
    "IdentityMode",
    "IdentityReport",
    "boundary_check",
    "grid_points",
    "guide_family",
    "sampling_box",
    "verify_identity",
    "verify_identities",
    # oracle: grid sampling, marching squares and Hausdorff distance
    "BoxTooSmall",
    "Contour",
    "ScalarGrid",
    "component_count",
    "extract_contour",
    "grid_field",
    "hausdorff",
    # campaign and svg: seeded verification and rendering
    "CampaignResult",
    "run_boundary_campaign",
    "run_identity_campaign",
    "run_identity_campaigns",
    "run_residual_campaign",
    "run_topology_campaign",
    "render_svg",
]

__version__ = "0.1.0"
