"""The bitset kernels plus shared mask helpers.

The kernels are defined in ``_kernels_py`` and re-exported here.  Callers
look them up in this module, so it is the kernel layer's boundary: the
span tracer in ``perfbench`` wraps the names here and leaves the calls the
kernels make among themselves unwrapped.
"""

from __future__ import annotations

from ._kernels_py import (
    BACKEND,
    best_swap,
    bfs_dists,
    bipartite_side,
    diameter,
    eccentricity,
    first_improving_swap,
    is_connected,
    reach,
    scan_masks,
    sum_dist,
    swapped_rows,
    swapped_sum_dist,
)


def mask_to_adj(n: int, mask: int) -> tuple[int, ...]:
    """Expand a row-major edge mask into adjacency rows."""
    adj = [0] * n
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return tuple(adj)


def adj_to_mask(adj) -> int:
    n = len(adj)
    mask = 0
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i] >> j & 1:
                mask |= 1 << k
            k += 1
    return mask
