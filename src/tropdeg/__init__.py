"""tropdeg: exact combinatorics of toric Tyurin degenerations.

Lattice polytopes and regular subdivisions over exact rationals, tropical
spaces with monodromy and simplicity verdicts, deepest-stratum embeddings,
and zeroth-order mirror ring presentations, with canned pipelines for the
worked examples.
"""

from .polytope import (
    LatticePolytope,
    NefPartition,
    hull,
    minkowski_sum,
    product,
)
from .subdivision import (
    GraphDegeneration,
    PLFunction,
    Subdivision,
    blowup_refinement,
    fine_crepant_subdivision,
    graph_degeneration,
    hyperplane_split,
    regular_subdivision,
    sum_refinement,
)
from .tropical import (
    TropicalSpace,
    count_focus_focus,
    discriminant,
    dual_intersection_complex,
    hypersurface_trop,
    is_simple,
)
from .embed import (
    ComplexMap,
    FibrationData,
    embed_D,
    lg_truncate,
    local_fibre,
    open_embed_LG,
    simplex_fibration,
    specialization_map,
)
from .zeroring import (
    EmbeddedIdeal,
    GluingData,
    RingPresentation,
    embedded_ideal,
    genericity_scan,
    hilbert_count,
    proj_ring,
)
from .pipelines import build_example, build_hypercube, build_kp1_2, build_quintic

__version__ = "0.1.0"

__all__ = [
    "LatticePolytope",
    "NefPartition",
    "hull",
    "minkowski_sum",
    "product",
    "GraphDegeneration",
    "PLFunction",
    "Subdivision",
    "blowup_refinement",
    "fine_crepant_subdivision",
    "graph_degeneration",
    "hyperplane_split",
    "regular_subdivision",
    "sum_refinement",
    "TropicalSpace",
    "count_focus_focus",
    "discriminant",
    "dual_intersection_complex",
    "hypersurface_trop",
    "is_simple",
    "ComplexMap",
    "FibrationData",
    "embed_D",
    "lg_truncate",
    "local_fibre",
    "open_embed_LG",
    "simplex_fibration",
    "specialization_map",
    "EmbeddedIdeal",
    "GluingData",
    "RingPresentation",
    "embedded_ideal",
    "genericity_scan",
    "hilbert_count",
    "proj_ring",
    "build_example",
    "build_hypercube",
    "build_kp1_2",
    "build_quintic",
]
