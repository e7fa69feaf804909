"""Kernel backend selection plus shared mask helpers.

The compiled extension is preferred when importable; set SWAPEQ_PURE=1 to
force the pure-Python kernels (used by the benchmark and parity tests).
"""

from __future__ import annotations

import os

if os.environ.get("SWAPEQ_PURE") == "1":
    from . import _kernels_py as _impl
else:
    try:
        from . import _fastkernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernels_py as _impl

BACKEND = _impl.BACKEND

bfs_dists = _impl.bfs_dists
sum_dist = _impl.sum_dist
is_connected = _impl.is_connected
eccentricity = _impl.eccentricity
diameter = _impl.diameter
bipartite_side = _impl.bipartite_side
swapped_sum_dist = _impl.swapped_sum_dist
first_improving_swap = _impl.first_improving_swap
best_swap = _impl.best_swap
scan_masks = _impl.scan_masks


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
