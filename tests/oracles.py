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


def dft_direct_step(idx, w, X, out):
    """One DFT-action mixing step term by term, sum_k w[k] a(idx[k], X), into ``out``.

    Rows [0, N-k) of a(k, X) are rows [k, N) of X and the rest rows
    [0, k), times the column phases w^-(k n mod N): each term is the
    product ``np.roll(X, -k, 0) * phases`` forms, written into one buffer
    by two slice multiplies, then weighted and added in row order, zero
    weights skipped.  So it equals the base class's one ``apply`` per term
    bit for bit, and holds the N x N direct state that a dft run no longer
    forms step by step.
    """
    N = X.shape[0]
    n = np.arange(N)
    term = np.empty_like(X)
    out.fill(0)
    for k, wk in zip(idx, w):
        if wk:
            phases = np.exp(-2j * np.pi * ((k * n) % N) / N)
            np.multiply(X[k:], phases, out=term[: N - k])
            np.multiply(X[:k], phases, out=term[N - k :])
            term *= wk
            out += term
    return out


def dd_propagator_gaps(schedule, action, H, weights_trajectory, frames_n, dt):
    """The decoupling propagator gap at each n in 0..frames_n, re-derived per n.

    For each n the exact propagator is the ordered product of
    exp(-i dt a(f, H)) over ``schedule.expand_frames(n)``, first frame
    rightmost, started afresh from the identity with one ``expm`` per frame;
    the gap is its spectral-norm distance from exp(-i dt 2^n H_bar_n), where
    H_bar_n is the weights-trajectory row n average of a(g, H).
    """
    from scipy.linalg import expm

    dim = H.shape[0]
    gaps = {}
    for n in range(frames_n + 1):
        U_exact = np.eye(dim, dtype=np.complex128)
        for f in schedule.expand_frames(n):
            U_exact = expm(-1j * dt * action.apply(f, H)) @ U_exact
        terms = (weights_trajectory[n][g] * action.apply(g, H) for g in range(action.group.order))
        H_bar_n = sum(terms)
        U_avg = expm(-1j * dt * (2**n) * H_bar_n)
        gaps[n] = float(np.linalg.norm(U_exact - U_avg, 2))
    return gaps
