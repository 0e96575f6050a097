"""Defective (1, k)-coloring of embedded girth-5 graphs.

The package has four layers: rotation-system embeddings (embedding),
defective colorings with an exact solver (coloring), the exact-rational
charge redistribution rules and structural audit (discharging), and a
constructive colorer driven by reducible configurations (colorer), plus
corpus generation (generate) and plain-text documents (graphio).
"""

from .builder import PlanarBuilder
from .colorer import (ColoringTrace, ColorResult, ExtensionFailedError,
                      ReductionKind, ReductionStep, color, replay_trace)
from .coloring import (Coloring, ColoringError, PartialColoringError,
                       SolveResult, SolveStatus, induced_max_degrees, is_valid,
                       solve_exact)
from .discharging import (AuditReport, ChargeLedger, FaceClass, Transfer,
                          apply_rules, audit, capacity, classify_faces,
                          ledger_csv, sponsor_instances, transfers_csv)
from .embedding import (AsymmetricError, DisconnectedError, EmbeddedGraph,
                        GirthTooSmallError, GraphError, NonSimpleError, girth)
from .generate import gen_planar_girth5
from .graphio import (ParseError, parse_coloring, parse_graph,
                      serialize_coloring, serialize_graph)

__version__ = "0.1.0"

__all__ = [
    "AsymmetricError", "AuditReport", "ChargeLedger", "ColorResult",
    "Coloring", "ColoringError", "ColoringTrace", "DisconnectedError",
    "EmbeddedGraph", "ExtensionFailedError", "FaceClass",
    "GirthTooSmallError", "GraphError", "NonSimpleError", "ParseError",
    "PartialColoringError", "PlanarBuilder", "ReductionKind", "ReductionStep",
    "SolveResult", "SolveStatus", "Transfer", "apply_rules", "audit",
    "capacity", "classify_faces", "color", "gen_planar_girth5", "girth",
    "induced_max_degrees", "is_valid", "ledger_csv", "parse_coloring",
    "parse_graph", "replay_trace", "serialize_coloring", "serialize_graph",
    "solve_exact", "sponsor_instances", "transfers_csv",
]
