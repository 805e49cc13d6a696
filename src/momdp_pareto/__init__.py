"""Exact Pareto fronts (all vertices and faces) for finite discounted MO-MDPs.

The package exports what the README's Library section documents; everything
else is reached through its module (`momdp_pareto.geometry`, `.mdp`,
`.search`, `.oracle`, `.serialize`).
"""

__version__ = "0.1.0"

from .mdp import InvalidMdpError, Mdp, gen_gridworld, gen_random_mdp, long_term_return
from .oracle import (
    ComparisonReport,
    EnumerationCapError,
    VerifyReport,
    brute_force_front,
    compare_fronts,
    verify_front,
)
from .search import (
    FaceRecord,
    ParetoFront,
    SearchAbortError,
    SearchConfig,
    VertexRecord,
    policies_on_face,
    search,
)

__all__ = [
    "__version__",
    "ComparisonReport",
    "EnumerationCapError",
    "FaceRecord",
    "InvalidMdpError",
    "Mdp",
    "ParetoFront",
    "SearchAbortError",
    "SearchConfig",
    "VerifyReport",
    "VertexRecord",
    "brute_force_front",
    "compare_fronts",
    "gen_gridworld",
    "gen_random_mdp",
    "long_term_return",
    "policies_on_face",
    "search",
    "verify_front",
]
