"""Reference implementations that tests compare the library's fast paths with.

Each oracle computes its quantity the plain way, through public methods
only, so that a kernel override in ``groupsym`` is checked against an
independent computation.
"""

from __future__ import annotations

import math

import numpy as np


def orbit_walk_symmetrizer(action, x):
    """F(x) = (1/|G|) sum_g a(g, x) through the orbit blocks: each block's sum, added in block order.

    The base-class walk sums in this order, so the conjugation, DFT and
    custom actions' ``symmetrizer`` equals it bit for bit; the permutation
    actions' orbit-label mean sums in another order.
    """
    parts = [block.sum(axis=0) for _, block in action.orbit_blocks(x)]
    total = sum(parts[1:], start=parts[0])
    return (total / action.group.order).reshape(action.space.shape)


def orbit_walk_residual(action, x):
    """max_g ||a(g, x) - x||_2 over every element, through the orbit blocks.

    Each row norm sums the squares of the real view of a(g, x) - x, as the
    library's walk does, so on every element it walks the two agree bit for
    bit.
    """
    flat = np.ascontiguousarray(x).reshape(-1)
    worst = 0.0
    for _, block in action.orbit_blocks(x):
        diff = (block - flat).view(np.float64)
        worst = max(worst, float(np.einsum("ij,ij->i", diff, diff).max()))
    return math.sqrt(worst)
