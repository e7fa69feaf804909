"""swapeq: swap-equilibrium analysis of small graphs.

A connected graph is a (sum basic) swap equilibrium when no vertex can
strictly decrease the sum of its distances to all other vertices by
exchanging one incident edge for an edge to a non-neighbour.  This package
checks that property exactly, decomposes and classifies graphs, evaluates
the aggregated swap-cost machinery behind the diameter-2 results for
bipartite / block / cactus equilibria, and sweeps every small graph to
machine-verify those claims.
"""

from .graph import INF, Graph, GraphError, build_graph, diameter
from .kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = [
    "INF",
    "Graph",
    "GraphError",
    "KERNEL_BACKEND",
    "build_graph",
    "diameter",
    "__version__",
]
