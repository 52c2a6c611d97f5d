"""Helpers shared by the test modules."""

import numpy as np

from chronos.path_sum import _cell_stack


def cell_generators(f, edges) -> np.ndarray:
    """The path-sum cell generators of edges (..., n + 1), as (..., n, d, d):
    leading axes are a batch of partitions."""
    edges = np.atleast_1d(edges)
    A = _cell_stack(f, [edges.reshape(-1, edges.shape[-1])])
    return A.reshape(edges.shape[:-1] + (edges.shape[-1] - 1, f.dim, f.dim))
