"""The bitset kernels and the two bit layouts graphs are packed in.

The kernels are defined in ``_kernels_py`` and re-exported here.  Callers
look them up in this module, so it is the kernel layer's boundary: the
span tracer in ``perfbench`` wraps the names here and leaves the calls the
kernels make among themselves unwrapped.

Each bit layout has one decoder and one encoder, defined in ``_kernels_py``:

- row-major edge masks, the survey's enumeration: bit k (low bit first) is
  the k-th pair of (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1);
  ``mask_to_adj`` and ``adj_to_mask``;
- column-major upper triangles, graph6 payloads and canonical forms: the
  pairs run (0,1), (0,2), (1,2), (0,3), ..., (n-2,n-1), the first as the
  high bit; ``triangle_rows`` and ``triangle_bits``.
"""

from ._kernels_py import (
    BACKEND,
    adj_to_mask,
    best_swap,
    bfs_dists,
    bipartite_side,
    diameter,
    eccentricity,
    first_improving_swap,
    is_connected,
    mask_to_adj,
    reach,
    scan_masks,
    sum_dist,
    swapped_rows,
    swapped_sum_dist,
    triangle_bits,
    triangle_rows,
)
