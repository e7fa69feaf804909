"""Every connected labeled graph on n vertices, read off kernels.scan_masks,
the mask walk the survey itself runs.

The scan also decides each graph's verdict, which makes n = 6 take about
0.5 s, so the graphs of each n are built once per test session.
"""

from functools import cache

from swapeq import kernels
from swapeq.graph import graph_from_adj


@cache
def connected(n):
    """The connected labeled graphs on 0..n-1, by ascending row-major edge mask."""
    return tuple(graph_from_adj(n, kernels.mask_to_adj(n, mask))
                 for mask, *_ in kernels.scan_masks(n, 0, 1 << n * (n - 1) // 2))
