"""Strong edge-colouring toolkit for sparse planar graphs."""

__version__ = "0.1.0"

from .colouring import (
    Palette,
    PartialColouring,
    Violation,
    colouring_from_json,
    colouring_to_json,
    free_colours,
    known_bound,
    trivial_lower_bound,
    verify_strong,
)
from .discharging import ChargeMap, Report, apply_rules, audit, initial_charges
from .embedding import Embedding, Face, NonPlanar, embed_rotation, planar_embed
from .exact import SolveResult, is_strong_k_colourable, strong_chromatic_index
from .generators import GeneratorSpec, generate, subdivide
from .girth6 import (
    Configuration,
    ExtensionPlan,
    ExtensionInfeasible,
    StaleConfiguration,
    TheoremViolation,
    colour_girth6,
    extend,
    find_configuration,
    plan_reduction,
)
from .graph import ACYCLIC, Graph, GraphParseError, parse_graph
from .pipeline import (
    ConflictGraph,
    EdgeColouring,
    class1_edge_colour,
    colour_pipeline,
    colour_planar_nodes,
    compose,
    conflict_graph,
    corollary1_applies,
    vizing_edge_colour,
)

__all__ = [
    "ACYCLIC",
    "ChargeMap",
    "Configuration",
    "ConflictGraph",
    "EdgeColouring",
    "Embedding",
    "ExtensionInfeasible",
    "ExtensionPlan",
    "Face",
    "GeneratorSpec",
    "Graph",
    "GraphParseError",
    "NonPlanar",
    "Palette",
    "PartialColouring",
    "Report",
    "SolveResult",
    "StaleConfiguration",
    "TheoremViolation",
    "Violation",
    "apply_rules",
    "audit",
    "class1_edge_colour",
    "colour_girth6",
    "colour_pipeline",
    "colour_planar_nodes",
    "colouring_from_json",
    "colouring_to_json",
    "compose",
    "conflict_graph",
    "corollary1_applies",
    "embed_rotation",
    "extend",
    "find_configuration",
    "free_colours",
    "generate",
    "initial_charges",
    "is_strong_k_colourable",
    "known_bound",
    "parse_graph",
    "plan_reduction",
    "planar_embed",
    "strong_chromatic_index",
    "subdivide",
    "trivial_lower_bound",
    "verify_strong",
    "vizing_edge_colour",
]
