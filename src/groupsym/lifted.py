"""Convex-weight dynamics lifted onto a finite group.

A signal assigns each step a convex weight vector s(t) over group elements;
the lifted state evolves by group convolution

    p_g(t+1) = sum_h s_h(t) * p_{h^-1 g}(t),

equivalently p(t+1) = M(t) p(t) with M(t) = sum_h s_h(t) * Pi_h, where Pi_h
permutes indices by left translation.  The uniform vector is always a fixed
point; mixing certificates quantify how fast trajectories contract onto it.
"""

from __future__ import annotations

import functools
import io
import itertools
import mmap
import os
import signal
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

try:
    import fcntl
except ImportError:  # no os.fork there either, so every write is serial
    fcntl = None

import numpy as np

from .groups import FiniteGroup, same_group

__all__ = [
    "WEIGHT_ATOL",
    "RENORM_DRIFT",
    "SIGNAL_CHUNK",
    "GroupMismatchError",
    "ConvexWeights",
    "Signal",
    "TransitionMatrix",
    "MixingCertificate",
    "convolve",
    "transition_matrix",
    "window_weights",
    "check_mixing",
    "find_mixing_certificate",
    "lifted_steps",
    "run_lifted",
    "envelope_bounds",
    "rate_bound",
    "lyapunov_norm",
    "relative_entropy",
    "lifted_series",
    "laplacian",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "TRAJECTORY_FLOAT_FORMAT",
]

# Entry / normalization tolerance for weight vectors.
WEIGHT_ATOL = 1e-12
# Sum drift beyond which a weight vector is silently renormalized.
RENORM_DRIFT = 1e-13
# Floats in trajectory CSVs round-trip exactly at 17 significant digits.
TRAJECTORY_FLOAT_FORMAT = "%.17g"
# A trajectory CSV of at least this many fields, in rows of at least
# FORKED_WRITE_MIN_ROW_FIELDS fields, is formatted by two processes where
# os.fork exists: a forked child claims rows one at a time from the back while
# this process does the caller's overlapped work and then claims rows from the
# front.  A claim costs about 0.1 ms of numpy calls however narrow its row, so
# narrower rows are written serially.  Measured with the numpy formatter, 8
# fresh processes each on two CPUs and dense weights, the forked write ties the
# serial write at 100k fields and wins at 200k and 400k (8 of 8 each) in rows
# of 5,043 fields (34.0 against 48.5 ms at 200k) and of 1,500; in rows of 723
# it loses at 200k (51.2 against 45.5 ms) and ties at 400k, and in rows of 9 it
# takes 1.19 s against 45 ms at 200k.
FORKED_WRITE_MIN_FIELDS = 200_000
FORKED_WRITE_MIN_ROW_FIELDS = 1_500
# A trajectory CSV of at least this many bytes is parsed by two processes where
# os.fork exists: a forked child parses the back half of the rows while this
# process parses the front half.  The fork, the pipe and the reap cost about
# 5 ms.  Measured in fresh processes on two CPUs, the median of 5 alternating
# reads in each of 6 to 8 processes: the forked read loses at 0.5 MB (6 of 6
# in rows of 5,043 fields, 13-16 against 9-15 ms), and wins at 1.0-1.2 MB in
# 7 or 8 of 8 in rows of 10, 100 and 5,043 fields (25.0 against 30.9 ms in
# rows of 5,043) and at 4 MB in 7 of 8 (69 against 104 ms in rows of 100).
FORKED_READ_MIN_BYTES = 1 << 20
# Working-set budget of one batched array operation.  Orbit blocks (actions)
# and the start chunks of the window kernel both stay near this size, large
# enough to amortize per-call overhead and small enough to stay in cache.
BLOCK_BYTES = 1 << 20
# Steps a schedule's Signal draws at a time, as its rows are first read.  A run
# that stops early has drawn at most this many steps past the last it read.
SIGNAL_CHUNK = 64


class GroupMismatchError(ValueError):
    """Two weight vectors refer to different groups."""


class ConvexWeights:
    """Convex weight vector over the elements of a finite group.

    Entries must be finite, nonnegative (within WEIGHT_ATOL) and sum to 1
    (within WEIGHT_ATOL).  Small negative round-off is clamped to zero and sums
    drifting by more than RENORM_DRIFT are renormalized, so repeated
    arithmetic cannot silently walk out of the simplex.
    """

    __slots__ = ("weights", "group")

    def __init__(self, weights, group: FiniteGroup):
        w = np.array(weights, dtype=np.float64)
        if w.shape != (group.order,):
            raise ValueError(
                f"expected {group.order} weights, got shape {w.shape}"
            )
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        low = w.min()
        if low < -WEIGHT_ATOL:
            g = int(np.argmin(w))
            raise ValueError(
                f"weight for element {g} is {w[g]:.3e}, below -{WEIGHT_ATOL:g}"
            )
        if low < 0.0:
            w[w < 0.0] = 0.0
        total = w.sum()
        if abs(total - 1.0) > WEIGHT_ATOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        if abs(total - 1.0) > RENORM_DRIFT:
            w /= total
        w.setflags(write=False)
        self.weights = w
        self.group = group

    @classmethod
    def point_mass(cls, group: FiniteGroup, element: Optional[int] = None) -> "ConvexWeights":
        """All mass on one element (the identity by default)."""
        g = group.identity if element is None else int(element)
        w = np.zeros(group.order)
        w[g] = 1.0
        return cls(w, group)

    @classmethod
    def uniform(cls, group: FiniteGroup) -> "ConvexWeights":
        return cls(np.full(group.order, 1.0 / group.order), group)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)

    def __repr__(self) -> str:
        return f"ConvexWeights({self.weights!r})"


def _require_same_group(a: ConvexWeights, b: ConvexWeights) -> None:
    if not same_group(a.group, b.group):
        raise GroupMismatchError(
            f"weight vectors live on different groups "
            f"({a.group!r} vs {b.group!r})"
        )


def convolve(s: ConvexWeights, p: ConvexWeights) -> ConvexWeights:
    """Group convolution (s * p)_g = sum_h s_h p_{h^-1 g}.

    One application of the transition operator M = sum_h s_h Pi_h to p.
    Runs in O(support(s) * order) without materializing the matrix.
    """
    _require_same_group(s, p)
    support = np.flatnonzero(s.weights)
    translations = s.group.rows(s.group.inverses[support])
    out = np.zeros(s.group.order)
    for h, row in zip(support, translations):
        out += s.weights[h] * p.weights[row]
    return ConvexWeights(out, s.group)


class TransitionMatrix:
    """Dense matrix M = sum_h s_h Pi_h of one convolution step.

    Doubly stochastic by construction (each Pi_h is a permutation matrix);
    validated to 1e-12 so corrupted inputs fail loudly.
    """

    __slots__ = ("matrix", "group")

    def __init__(self, matrix, group: FiniteGroup):
        m = np.array(matrix, dtype=np.float64)
        n = group.order
        if m.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {m.shape}")
        if m.min() < -WEIGHT_ATOL:
            raise ValueError("matrix has a negative entry beyond tolerance")
        ones = np.ones(n)
        if np.abs(m.sum(axis=0) - ones).max() > WEIGHT_ATOL:
            raise ValueError("column sums deviate from 1 beyond tolerance")
        if np.abs(m.sum(axis=1) - ones).max() > WEIGHT_ATOL:
            raise ValueError("row sums deviate from 1 beyond tolerance")
        m.setflags(write=False)
        self.matrix = m
        self.group = group


def transition_matrix(s: ConvexWeights) -> TransitionMatrix:
    """Materialize M(s): M[g, k] = s_{g k^-1}, so that M p = convolve(s, p).

    Dense by nature: it reads the group's full table, (order, order) int32,
    on top of the (order, order) float64 matrix.
    """
    group = s.group
    idx = group.table[:, group.inverses]  # idx[g, k] = g * k^-1
    return TransitionMatrix(s.weights[idx], group)


def _support_row(s: ConvexWeights) -> tuple:
    nz = np.flatnonzero(s.weights)
    return nz, s.weights[nz]


class Signal:
    """A realized switching signal: the weights of step t are row t of two arrays.

    Row t of the (steps, K) intp array ``idx`` lists the support of s(t) in
    increasing element order (the order in which ``convolve`` adds its
    terms) and row t of the float64 array ``w`` its weights, padded with
    zero weight on the identity up to K.  ``rows`` yields each step's
    (elements, weights); they are drawn SIGNAL_CHUNK steps at a time as they
    are first read, so a run that stops early has drawn at most one chunk
    past the last step it read.  Readers get views that cannot be written.
    """

    __slots__ = ("group", "_idx", "_w", "_ready", "_rows")

    def __init__(self, group: FiniteGroup, steps: int, width: int, rows: Iterator[tuple]):
        self.group, self._rows, self._ready = group, rows, 0
        self._idx = np.empty((steps, width), dtype=np.intp)
        self._w = np.empty((steps, width))

    @classmethod
    def from_weights(cls, signal, group: Optional[FiniteGroup] = None) -> "Signal":
        """The Signal of ConvexWeights steps on ``group`` (by default the first
        step's); a Signal passes through once its group is checked."""
        steps = [signal] if isinstance(signal, Signal) else list(signal)
        if group is None and not steps:
            raise ValueError("an empty signal names no group")
        group = steps[0].group if group is None else group
        for t, s in enumerate(steps):
            if not same_group(s.group, group):
                raise GroupMismatchError(
                    f"signal step {t} and the run live on different groups "
                    f"({s.group!r} vs {group!r})"
                )
        if isinstance(signal, Signal):
            return signal
        rows = [_support_row(s) for s in steps]
        return cls(group, len(rows), max((len(e) for e, _ in rows), default=1), iter(rows))

    def __len__(self) -> int:
        return len(self._idx)

    def _draw(self, stop: int) -> None:
        while self._ready < min(stop, len(self)):
            a, b = self._ready, min(len(self), self._ready + SIGNAL_CHUNK)
            self._idx[a:b], self._w[a:b] = self.group.identity, 0.0
            for t in range(a, b):
                elements, weights = next(self._rows)
                self._idx[t, : len(elements)], self._w[t, : len(weights)] = elements, weights
            self._ready = b

    def rows(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only views of rows start..stop-1 of ``idx`` and ``w``."""
        self._draw(stop)
        idx, w = self._idx[start:stop], self._w[start:stop]
        idx.flags.writeable = w.flags.writeable = False
        return idx, w

    @property
    def idx(self) -> np.ndarray:
        return self.rows(0, len(self))[0]

    @property
    def w(self) -> np.ndarray:
        return self.rows(0, len(self))[1]

    def realize(self, steps: int) -> "Signal":
        """The first ``steps`` steps: a signal given inline runs as a schedule does."""
        if len(self) < steps:
            raise ValueError(f"signal supplies {len(self)} steps but {steps} were requested")
        return self[:steps]

    def describe(self) -> dict:
        return {"kind": "inline-signal"}

    def __getitem__(self, t):
        """A slice is a Signal; step t is rebuilt as ConvexWeights, for boundaries and tests."""
        if isinstance(t, slice):
            start, stop, stride = t.indices(len(self))
            self._draw(stop if stride > 0 else start + 1)
            steps = len(range(start, stop, stride))
            return Signal(self.group, steps, self._w.shape[1], zip(self._idx[t], self._w[t]))
        t = range(len(self))[t]
        idx, w = self.rows(t, t + 1)
        weights = np.zeros(self.group.order)
        keep = w[0] != 0.0  # the identity can be both support and padding
        weights[idx[0, keep]] = w[0, keep]
        return ConvexWeights(weights, self.group)


def _workspace(rows: int, order: int) -> Tuple[np.ndarray, ...]:
    """Buffers for ``_advance`` on up to ``rows`` rows of ``order`` entries.

    The gather index, the term, the accumulator and the row offsets into a
    flat chunk.  A scan allocates them once: fresh per-call temporaries of a
    few hundred KB land on pages the allocator has just returned to the OS,
    and faulting them back in cost more than the arithmetic.
    """
    return (
        np.empty((rows, order), dtype=np.intp),
        np.empty((rows, order)),
        np.empty((rows, order)),
        np.arange(0, rows * order, order)[:, None],
    )


def _advance(
    q: np.ndarray, idx: np.ndarray, w: np.ndarray, group: FiniteGroup, work: Tuple[np.ndarray, ...]
) -> None:
    """One convolution step per row, in place: q[i] <- convolve(s_i, q[i]).

    Row i of (idx, w) is the support of s_i.  The arithmetic is the one
    ``convolve`` and ``ConvexWeights`` perform on a single vector (terms
    added in support order, then the same clamp and renormalization, row by
    row), so each row is bit-identical to the scalar result.  ``work`` is a
    ``_workspace`` of at least len(q) rows; its prefixes hold every
    temporary of the size of q.
    """
    flat = q.reshape(-1)
    index, term, out, offsets = (b[: q.shape[0]] for b in work)
    # columns of padding only are skipped: adding zero terms would change nothing
    moved = (idx != group.identity).any(axis=0).tolist()
    for k in np.flatnonzero(w.any(axis=0)).tolist():
        wk, hk = w[:, k, None], idx[:, k]
        if not moved[k]:
            src = q  # translation by the identity
        else:
            # src[i] = q[i][table[inv[h_i]]], gathered from the flat chunk.
            # Casting the int32 rows apart from the add, and a take that
            # cannot raise, keep numpy from buffering either into temporaries.
            np.copyto(index, group.rows(group.inverses[hk]))
            index += offsets
            src = np.take(flat, index, out=term, mode="clip")
        if k == 0:  # never padding: every step has a support point
            np.multiply(wk, src, out=out)
        else:
            out += np.multiply(wk, src, out=term)
    low = out.min(axis=1)
    if low.min() < -WEIGHT_ATOL:
        i = int(np.argmin(low))
        raise ValueError(
            f"weight for element {int(np.argmin(out[i]))} is {low[i]:.3e}, "
            f"below -{WEIGHT_ATOL:g}"
        )
    if low.min() < 0.0:
        out[out < 0.0] = 0.0
    total = out.sum(axis=1)
    drift = np.abs(total - 1.0)
    if drift.max() > WEIGHT_ATOL:
        raise ValueError(f"weights sum to {total[int(np.argmax(drift))]!r}, not 1")
    renorm = drift > RENORM_DRIFT
    if renorm.any():
        out[renorm] /= total[renorm, None]
    q[...] = out


def _windows(
    signal: Sequence[ConvexWeights], t0: int, horizon: int, max_T: int, starts: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """Composite window weights for many starts at once, one T at a time.

    Yields (T, q) for T = 1..max_T, where row i of q is q(t0+i, T) for the
    first min(starts, horizon-T+1) starts, i.e. every start whose window
    still fits in [t0, t0+horizon).  All rows advance together by one
    convolution per T, so the scan costs O(starts * max_T * K * order) work
    in O(starts * order) memory.  Rows are processed in chunks of about
    BLOCK_BYTES so the gathers stay in cache.  ``q`` is overwritten by the
    next step.
    """
    signal = Signal.from_weights(signal)
    group = signal.group
    idx, w = signal.rows(t0, t0 + horizon)
    q = np.zeros((starts, group.order))
    q[:, group.identity] = 1.0
    # per row: the state, the gathered term, the accumulator and the index row
    chunk = max(1, BLOCK_BYTES // (32 * group.order))
    work = _workspace(min(chunk, starts), group.order)
    for T in range(1, max_T + 1):
        rows = min(starts, horizon - T + 1)
        for a in range(0, rows, chunk):
            b = min(rows, a + chunk)
            # start t0+i takes its T-th step from signal[t0+i+T-1]
            steps = slice(a + T - 1, b + T - 1)
            _advance(q[a:b], idx[steps], w[steps], group, work)
        yield T, q[:rows]


def window_weights(signal: Sequence[ConvexWeights], t: int, T: int) -> ConvexWeights:
    """Composite weights q(t,T) of the window [t, t+T).

    Iterated convolution starting from the identity point mass; the result
    satisfies sum_g q_g Pi_g = M(t+T-1) ... M(t+1) M(t).
    """
    if T < 1:
        raise ValueError(f"window length must be >= 1, got {T}")
    if t < 0 or t + T > len(signal):
        raise ValueError(
            f"window [{t}, {t + T}) exceeds signal length {len(signal)}"
        )
    for _, q in _windows(signal, t, T, T, starts=1):
        pass
    return ConvexWeights(q[0], signal[t].group)


@dataclass(frozen=True)
class MixingCertificate:
    """Window-positivity certificate for a signal.

    When ``satisfied``, every length-T window starting in the scanned range
    put composite weight at least ``delta`` on every group element (so
    necessarily delta <= 1/order).  On failure ``witness`` is the first
    (start, element) pair at or below the threshold.  ``horizon`` is the
    number of signal steps the scan covered, from its first window start; it
    records what was scanned rather than what was found, so it takes no part
    in equality.
    """

    T: int
    delta: float
    satisfied: bool
    witness: Optional[Tuple[int, int]] = None
    horizon: Optional[int] = field(default=None, compare=False)


def check_mixing(
    signal: Sequence[ConvexWeights],
    t0: int,
    horizon: int,
    T: int,
    delta: float,
) -> MixingCertificate:
    """Scan every window start t in [t0, t0+horizon-T] for min_g q_g(t,T) > delta.

    On failure the witness is the first failing start and its smallest
    minimizing element.
    """
    if T < 1:
        raise ValueError(f"window length must be >= 1, got {T}")
    if horizon < T:
        raise ValueError(f"horizon {horizon} is shorter than the window {T}")
    if t0 < 0 or t0 + horizon > len(signal):
        raise ValueError(
            f"scan range [{t0}, {t0 + horizon}) exceeds signal length {len(signal)}"
        )
    for _, q in _windows(signal, t0, horizon, T, starts=horizon - T + 1):
        pass
    failing = np.flatnonzero(q.min(axis=1) <= delta)
    if failing.size:
        i = int(failing[0])
        witness = (t0 + i, int(np.argmin(q[i])))
        return MixingCertificate(T, delta, False, witness=witness, horizon=horizon)
    return MixingCertificate(T, delta, True, horizon=horizon)


def find_mixing_certificate(
    signal: Sequence[ConvexWeights],
    *,
    max_T: int,
    t0: int = 0,
    horizon: Optional[int] = None,
    delta_floor: float = 0.0,
) -> MixingCertificate:
    """Measure the smallest window T whose composite weights cover the group.

    Returns a satisfied certificate at the smallest T <= max_T for which
    min over scanned starts of min_g q_g(t,T) exceeds ``delta_floor``, with
    ``delta`` the achieved minimum.  Otherwise returns an unsatisfied
    certificate at max_T whose witness is the worst (start, element) pair:
    the earliest start attaining the minimum, then its smallest minimizing
    element.

    Every start advances in lockstep and the scan stops at the first T that
    passes, so it costs O(horizon * T * K * order) for K the largest step
    support, in O(horizon * order) memory (see ``_windows``).
    """
    if horizon is None:
        horizon = len(signal) - t0
    if max_T < 1:
        raise ValueError(f"max_T must be >= 1, got {max_T}")
    if horizon < 1 or t0 < 0 or t0 + horizon > len(signal):
        raise ValueError(
            f"scan range [{t0}, {t0 + horizon}) exceeds signal length {len(signal)}"
        )
    max_T = min(max_T, horizon)
    for T, q in _windows(signal, t0, horizon, max_T, starts=horizon):
        mins = q.min(axis=1)
        i = int(np.argmin(mins))
        if mins[i] > delta_floor:
            return MixingCertificate(T, float(mins[i]), True, horizon=horizon)
    witness = (t0 + i, int(np.argmin(q[i])))
    return MixingCertificate(max_T, float(mins[i]), False, witness=witness, horizon=horizon)


def lifted_steps(
    signal: Sequence[ConvexWeights], group: FiniteGroup, p0: Optional[np.ndarray] = None
) -> Iterator[np.ndarray]:
    """The lifted trajectory p(t+1) = convolve(s(t), p(t)), one step per ``next``.

    p(0) is ``p0``, by default the point mass on the identity.  Yields
    p(0..t) for t = 0, 1, ..., len(signal): a prefix of one
    (len(signal)+1, |G|) float64 array whose last row is p(t).  Rows are
    advanced by the window kernel, so each is bit-identical to iterated
    ``convolve`` and passes the same simplex checks; rows already yielded
    never change.  A caller that stops early keeps the last prefix it got.
    """
    signal = Signal.from_weights(signal, group)
    traj = np.zeros((len(signal) + 1, group.order))
    if p0 is None:
        traj[0, group.identity] = 1.0
    else:
        traj[0] = p0
    yield traj[:1]
    work = _workspace(1, group.order)
    for t in range(len(signal)):
        idx, w = signal.rows(t, t + 1)
        traj[t + 1] = traj[t]
        _advance(traj[t + 1 : t + 2], idx, w, group, work)
        yield traj[: t + 2]


def run_lifted(
    p0: ConvexWeights, signal: Sequence[ConvexWeights], steps: int
) -> List[ConvexWeights]:
    """Evolve p(t+1) = convolve(s(t), p(t)); returns [p(0), ..., p(steps)].

    Every intermediate state passes the ConvexWeights checks, so a signal
    that pushes the state out of the simplex fails the run.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if len(signal) < steps:
        raise ValueError(
            f"signal exhausted: {len(signal)} steps provided, {steps} requested"
        )
    for traj in lifted_steps(signal[:steps], p0.group, p0.weights):
        pass
    return [p0] + [ConvexWeights(row, p0.group) for row in traj[1:]]


def envelope_bounds(order: int, delta: float, k: int) -> Tuple[float, float]:
    """Upper/lower envelopes (x_k, y_k) around 1/order after k certified windows.

    x(k) = 1/n + (n-1)/n * (1-n*delta)^k and y(k) = 1/n - 1/n * (1-n*delta)^k;
    every entry of p(k*T) lies in [y(k), x(k)].
    """
    if not 0.0 < delta <= 1.0 / order + WEIGHT_ATOL:
        raise ValueError(
            f"delta must lie in (0, 1/{order}], got {delta!r}"
        )
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    rho = max(0.0, 1.0 - order * delta) ** k
    x = 1.0 / order + (order - 1) / order * rho
    y = 1.0 / order - rho / order
    return x, y


def rate_bound(group: FiniteGroup, T: int, delta: float, t: int) -> float:
    """Envelope width (1 - order*delta)^floor(t/T) certified after t steps."""
    if T < 1:
        raise ValueError(f"window length must be >= 1, got {T}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    x, y = envelope_bounds(group.order, delta, t // T)
    return x - y


def _lyapunov_row(w: np.ndarray) -> float:
    d = w - 1.0 / w.size
    return float(d @ d)


def _relative_entropy_row(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        g = int(np.flatnonzero(mask & (q <= 0.0))[0])
        raise ValueError(
            f"relative entropy undefined: q is zero on element {g} where p is not"
        )
    pw = p[mask]
    return float(np.sum(pw * (np.log(pw) - np.log(q[mask]))))


def lyapunov_norm(p: ConvexWeights) -> float:
    """Squared distance to the uniform vector, ||p - uniform||^2.

    Never increases under a convolution step (the transition matrices are
    doubly stochastic, so M^T M - I is negative semidefinite).
    """
    return _lyapunov_row(p.weights)


def relative_entropy(p: ConvexWeights, q: ConvexWeights) -> float:
    """KL divergence sum_g p_g (log p_g - log q_g), natural log, 0 log 0 = 0.

    Requires q to carry mass everywhere p does.
    """
    _require_same_group(p, q)
    return _relative_entropy_row(p.weights, q.weights)


def lifted_series(traj: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's ``lyapunov_norm`` and ``relative_entropy`` to uniform, same arithmetic."""
    uniform = np.full(traj.shape[1], 1.0 / traj.shape[1])
    lyap = np.array([_lyapunov_row(row) for row in traj])
    kl = np.array([_relative_entropy_row(row, uniform) for row in traj])
    return lyap, kl


def laplacian(M: TransitionMatrix) -> np.ndarray:
    """Continuous-time generator I - M; rows and columns sum to zero."""
    return np.eye(M.group.order) - M.matrix


class _FormatTables(NamedTuple):
    pow10: np.ndarray  # (k, 4) float64: hi, lo, and hi's Veltkamp halves, for 10**k
    quads: np.ndarray  # uint32: the four ASCII digits of 0..9999, as one word each
    zeros: np.ndarray  # 4 * the trailing zeros of 0..9999 written with four digits
    forms: np.ndarray  # decimal exponent + _EXP_OFFSET -> the key of its form, 17 digits
    layout: np.ndarray  # (key, _SLOT) intp: the source byte of each output byte
    words: np.ndarray  # uint32 source words ".-e+", ".-e-" and ",\r\n\0"
    blank: np.ndarray  # the 8 source words of a zero


# The fast formatter writes |x| in [_EXACT_MIN, _EXACT_MAX] and zero; any other
# value, and any whose scaled fraction is within _TIE_MARGIN of one half, goes
# through TRAJECTORY_FLOAT_FORMAT.
_EXACT_MIN, _EXACT_MAX = 1e-180, 1e180
_TIE_MARGIN = 1e-9
# Decimal exponents run over [-_EXP_OFFSET, _EXP_OFFSET].
_EXP_OFFSET = 183
# Output bytes of one field at most: "-2.2250738585072014e-308" and CRLF.
_SLOT = 26
# Formatter working memory per field, in bytes (275 measured with tracemalloc,
# most of it the gather index): a call formats at most BLOCK_BYTES //
# _FIELD_BYTES fields.
_FIELD_BYTES = 280
# Field forms: %g's fixed form for each exponent in [-4, 16], the exponent
# form with two and with three exponent digits, and zero.  A layout key is
# ((form * 17 + significant digits - 1) * 2 + negative) * 2 + ends a row.
_FIELD_FORMS = 24
_SIGNIFICANT = 17
_FORM_KEYS = _SIGNIFICANT * 4


def _pow10_pair(k: int) -> Tuple[float, float]:
    """10**k as hi + lo: hi the nearest double, lo the nearest double to the rest."""
    if k >= 0:
        n = 10**k
        hi = float(n)
        return hi, float(n - int(hi))
    d = 10**-k
    hi = 1 / d  # int division rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (d * den)


def _field_layout(form: int, digits: int) -> List[int]:
    """Source bytes (see _csv_fields) of an unsigned field in ``form`` with
    ``digits`` significant digits: %g's layout with trailing zeros dropped."""
    sig = list(range(3, 3 + digits))
    if form == _FIELD_FORMS - 1:
        return [0]
    if form < 21:
        e = form - 4
        if e < 0:
            return [0, 20] + [0] * (-e - 1) + sig
        return list(range(3, 4 + e)) + ([20] + sig[e + 1 :] if digits > e + 1 else [])
    exponent = [22, 23, 26, 27] if form == 21 else [22, 23, 25, 26, 27]
    return sig[:1] + ([20] + sig[1:] if digits > 1 else []) + exponent


@functools.cache
def _format_tables() -> _FormatTables:
    """The formatter's tables, built on first use."""
    hi, lo = np.array(
        [_pow10_pair(k) for k in range(16 - _EXP_OFFSET, 17 + _EXP_OFFSET)]
    ).T
    split = hi * 134217729.0
    hh = split - (split - hi)
    pow10 = np.stack([hi, lo, hh, hi - hh], axis=1)

    # quads[abcd] holds the ASCII digits a, b, c, d; zeros[abcd] is 4 per
    # trailing zero, counting 0000 as four
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        quads[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    quads = quads.view(np.uint32).ravel()
    z = np.arange(10) == 0
    zeros = 4 * (z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None]))))
    zeros = zeros.ravel()

    e = np.arange(-_EXP_OFFSET, _EXP_OFFSET + 1)
    forms = np.where((e >= -4) & (e <= 16), e + 4, np.where(np.abs(e) < 100, 21, 22))
    forms = forms * _FORM_KEYS + (_SIGNIFICANT - 1) * 4  # 17 digits, less 4 per trailing zero

    bodies = [
        _field_layout(form, n) for form in range(_FIELD_FORMS) for n in range(1, _SIGNIFICANT + 1)
    ]
    body = np.fromiter(  # 31 is NUL
        itertools.chain.from_iterable(b + [31] * (_SLOT - len(b)) for b in bodies),
        np.intp,
        len(bodies) * _SLOT,
    ).reshape(len(bodies), _SLOT)
    layout = np.empty((len(bodies), 2, 2, _SLOT), np.intp)  # (form and digits, neg, end)
    layout[:, 0] = body[:, None]
    layout[:, 1, :, 0] = 21
    layout[:, 1, :, 1:] = body[:, None, :-1]
    rows = np.arange(len(bodies))[:, None]
    ends = np.array([len(b) for b in bodies])[:, None] + [0, 1]  # by neg
    layout[rows, [0, 1], 0, ends] = 28
    layout[rows, [0, 1], 1, ends] = 29
    layout[rows, [0, 1], 1, ends + 1] = 30
    words = np.frombuffer(b".-e+.-e-,\r\n\0", np.uint32)
    blank = np.array([quads[0]] * 5 + [words[0], quads[0], words[2]], np.uint32)
    tables = _FormatTables(pow10, quads, zeros, forms, layout.reshape(-1, _SLOT), words, blank)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, e: np.ndarray, pow10: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as p + c: p the rounded double product, c the rest to
    about 1e-14 (|c| < 32).  a * hi is split exactly (Dekker's product)."""
    hi, lo, hh, hl = np.take(pow10, _EXP_OFFSET - e, axis=0).T
    p = a * hi
    split = a * 134217729.0
    ah = split - (split - a)
    al = a - ah
    c = ah * hh
    c -= p
    c += ah * hl
    c += al * hh
    c += al * hl
    c += a * lo
    return p, c


def _decade_shift(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """+1 where p + c >= 1e17, -1 where p + c < 1e16, else 0."""
    return ((p - 1e17) + c >= 0).astype(np.intp) - ((p - 1e16) + c < 0)


def _field_sources(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each value of ``v``, its 32 source bytes and its layout key for
    _csv_fields (before the row ends), and the indices of the values left to
    TRAJECTORY_FLOAT_FORMAT.

    A nonzero value is written as %.17g writes it: its 17 correctly rounded
    significant digits D * 10**(e - 16), laid out in %g's fixed or exponent
    form with trailing zeros dropped.  The decimal exponent e comes from
    log10 and is corrected by one decade where the unrounded product
    a * 10**(16 - e) is out of [1e16, 1e17); rounding D up to 1e17 carries
    into the next decade.  The source bytes are the digits of D as five
    4-digit groups (the first zero-padded), ".-e" and the exponent's sign,
    the exponent as 4 digits, and ",\\r\\n\\0".  A zero takes the zero
    layout, "0" from the padding, and no arithmetic.
    """
    tables = _format_tables()
    nonzero = np.flatnonzero(v)
    at = slice(None) if nonzero.size == v.size else nonzero
    a = np.abs(v[at])
    fast = a >= _EXACT_MIN
    fast &= a <= _EXACT_MAX
    a[~fast] = 1.0

    e = np.floor(np.log10(a)).astype(np.intp)
    p, c = _scaled(a, e, tables.pow10)
    shift = _decade_shift(p, c)
    moved = np.flatnonzero(shift)
    slow = np.flatnonzero(~fast)
    if moved.size:
        e[moved] += shift[moved]
        p[moved], c[moved] = _scaled(a[moved], e[moved], tables.pow10)
        slow = np.union1d(slow, moved[_decade_shift(p[moved], c[moved]) != 0])
    whole = np.floor(c)
    c -= whole  # now the fraction, in [0, 1)
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    d += c > 0.5
    c -= 0.5
    tie = np.flatnonzero(np.abs(c) < _TIE_MARGIN)
    if tie.size:
        slow = np.union1d(slow, tie)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry

    lead = d // 10**16
    d -= lead * 10**16
    upper = d // 10**8
    d -= upper * 10**8
    lower = d.astype(np.int32)
    upper = upper.astype(np.int32)
    g1 = upper // 10**4
    g2 = upper - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4
    src = np.empty((v.size, 8), np.uint32)
    src[:] = tables.blank
    for j, g in enumerate((lead, g1, g2, g3, g4)):
        src[at, j] = tables.quads[g]
    src[at, 5] = tables.words[(e < 0).view(np.uint8)]
    src[at, 6] = tables.quads[np.abs(e)]

    # less 4 per trailing zero of D, found from its last nonzero group
    zeros = tables.zeros
    low = np.where(g4 != 0, zeros[g4], zeros[g3] + 16)
    high = np.where(g2 != 0, zeros[g2], zeros[g1] + 16)
    key = np.full(v.size, (_FIELD_FORMS - 1) * _FORM_KEYS)
    key[at] = tables.forms[e + _EXP_OFFSET] - np.where(lower != 0, low, high + 32)
    key += np.signbit(v) * 2
    return src, key, nonzero[slow]


def _csv_fields(values: np.ndarray, ends_rows: bool) -> bytes:
    """The CSV text of a (rows, fields) block of values: each value as
    ``TRAJECTORY_FLOAT_FORMAT % value``, followed by a comma, except that each
    row's last value is followed by CRLF when ``ends_rows``.

    Each field is gathered from its 32 source bytes (_field_sources) by the
    layout of its key, into a slot of _SLOT bytes whose unused end is NUL
    and dropped.  Values the sources leave out are formatted by
    TRAJECTORY_FLOAT_FORMAT into their slots.
    """
    rows, cols = values.shape
    v = values.ravel()
    src, key, slow = _field_sources(v)
    if ends_rows:
        key.reshape(rows, cols)[:, -1] += 1
    index = np.take(_format_tables().layout, key, axis=0)
    index += np.arange(0, 32 * v.size, 32)[:, None]
    out = np.take(src.view(np.uint8).ravel(), index)
    del index  # the largest array here, freed before the copies below
    if slow.size:
        ends = (slow % cols == cols - 1) & ends_rows
        fields = [
            (TRAJECTORY_FLOAT_FORMAT % x + ("\r\n" if end else ",")).encode().ljust(_SLOT, b"\0")
            for x, end in zip(v[slow].tolist(), ends.tolist())
        ]
        out[slow] = np.frombuffer(b"".join(fields), np.uint8).reshape(-1, _SLOT)
    return out.tobytes().translate(None, b"\0")


def _rows_per_block(cols: int) -> int:
    """Rows of ``cols`` fields that one formatter call takes, at least one."""
    return max(1, BLOCK_BYTES // _FIELD_BYTES // cols)


def _rows_text(rows: range, weights: np.ndarray, lyapunov, kl) -> List[bytes]:
    """The CSV lines of ``rows``, given their lyapunov and kl entries, in
    pieces of at most one formatter call: all rows, or pieces of one wide row."""
    block = np.empty((len(rows), weights.shape[1] + 3))
    block[:, 0] = rows
    block[:, 1:-2] = weights[rows.start : rows.stop]
    block[:, -2] = lyapunov
    block[:, -1] = kl
    cols = block.shape[1]
    width = max(1, BLOCK_BYTES // _FIELD_BYTES) if len(rows) == 1 else cols
    return [
        _csv_fields(block[:, start : start + width], start + width >= cols)
        for start in range(0, cols, width)
    ]


class _Child:
    """A forked child process that runs ``work`` and leaves by ``os._exit``:
    status 0 if ``work`` returned, 1 if it raised.  The child must not call
    into BLAS, whose threads the fork did not copy.  On leaving a ``with``
    block, a child not yet reaped is killed and reaped.
    """

    def __init__(self, work: Callable[[], object]):
        self.pid = os.fork()
        if self.pid == 0:
            # only do the work, then leave without unwinding the caller
            code = 1
            try:
                work()
                code = 0
            finally:
                os._exit(code)

    def reap(self) -> int:
        """Wait for the child to end; its exit code (negative for a signal)."""
        status = os.waitpid(self.pid, 0)[1]
        self.pid = 0
        return os.waitstatus_to_exitcode(status)

    def __enter__(self) -> "_Child":
        return self

    def __exit__(self, *exc) -> None:
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            self.reap()


def _claim(spill, slots, front: bool) -> Optional[int]:
    """Take one row from the front or the back of the unclaimed range
    [slots[0], slots[1]); None once none are left.

    The record lock on the spill serializes the two writers' claims; the kernel
    drops it if its holder dies.
    """
    fcntl.lockf(spill, fcntl.LOCK_EX)
    try:
        lo, hi = slots[0], slots[1]
        if lo >= hi:
            return None
        if front:
            slots[0] = lo + 1
            return lo
        slots[1] = hi - 1
        return hi - 1
    finally:
        fcntl.lockf(spill, fcntl.LOCK_UN)


def write_trajectory_csv(
    path,
    weights: np.ndarray,
    lyapunov: Sequence[float],
    kl: Sequence[float],
    *,
    overlap: Optional[Callable[[], object]] = None,
) -> None:
    """Write a lifted trajectory as CSV: step,g0,...,g_{n-1},lyapunov,kl.

    Each value is written as ``TRAJECTORY_FLOAT_FORMAT % value`` writes it,
    17 significant digits, so parsing returns the exact doubles that were
    computed.  The numpy formatter ``_csv_fields`` makes those bytes; a value
    it cannot settle exactly (|x| outside [1e-180, 1e180], NaN or infinite,
    or a scaled fraction within 1e-9 of one half, exact ties included) goes
    through ``TRAJECTORY_FLOAT_FORMAT`` itself, which the tests use as the
    oracle.  Rows end in CRLF, and no field ever needs quoting, so the bytes
    match ``csv.writer`` output.  Rows are formatted and written a block at a
    time, about ``BLOCK_BYTES`` of formatter memory each, never the whole
    text at once.

    ``overlap``, if given, is called once in this process before any row is
    written here.  A file of at least ``FORKED_WRITE_MIN_FIELDS`` fields, in
    rows of at least ``FORKED_WRITE_MIN_ROW_FIELDS``, is formatted by two
    processes where ``os.fork`` exists: a child forked first formats rows,
    claimed one at a time from the back, into an unnamed spill file beside
    ``path``, while this process runs ``overlap`` and then claims rows from
    the front and writes them to ``path``.  When no rows are left it reaps
    the child and appends the child's rows in reverse order.
    The bytes are the same however the rows fall.  A child that fails raises
    OSError; if this process fails first, ``overlap`` included, the child is
    killed.  Either way it is reaped before this returns or raises.
    """
    weights = np.asarray(weights)
    steps, order = weights.shape
    if len(lyapunov) != steps or len(kl) != steps:
        raise ValueError("column lengths do not match the trajectory")
    header = ",".join(["step"] + [f"g{i}" for i in range(order)] + ["lyapunov", "kl"]) + "\r\n"
    if (
        not hasattr(os, "fork")
        or not steps
        or steps * (order + 3) < FORKED_WRITE_MIN_FIELDS
        or order + 3 < FORKED_WRITE_MIN_ROW_FIELDS
    ):
        if overlap is not None:
            overlap()
        size = _rows_per_block(order + 3)
        lyapunov, kl = np.asarray(lyapunov, dtype=np.float64), np.asarray(kl, dtype=np.float64)
        with open(path, "wb") as fh:
            fh.write(header.encode())
            for start in range(0, steps, size):
                rows = slice(start, start + size)
                fh.writelines(_rows_text(range(steps)[rows], weights, lyapunov[rows], kl[rows]))
        return

    directory = os.path.dirname(os.path.abspath(path))
    # shared slots: the unclaimed rows [lo, hi), the child's row count, then
    # the byte length of each row it spilled
    with tempfile.TemporaryFile(dir=directory) as spill, mmap.mmap(-1, 8 * (3 + steps)) as shared, \
            memoryview(shared).cast("q") as slots:

        def spill_rows():
            t = steps - 1
            while t is not None:
                text = b"".join(_rows_text(range(t, t + 1), weights, [lyapunov[t]], [kl[t]]))
                spill.write(text)
                slots[3 + slots[2]] = len(text)
                slots[2] += 1
                t = _claim(spill, slots, front=False)
            spill.flush()

        slots[1] = steps - 1  # the child's first row, claimed before it starts
        with _Child(spill_rows) as child:
            if overlap is not None:
                overlap()
            with open(path, "wb") as fh:
                fh.write(header.encode())
                t = _claim(spill, slots, front=True)
                while t is not None:
                    fh.writelines(_rows_text(range(t, t + 1), weights, [lyapunov[t]], [kl[t]]))
                    t = _claim(spill, slots, front=True)
                code = child.reap()
                if code:
                    raise OSError(f"trajectory writer process failed (exit status {code})")
                lengths = slots[3 : 3 + slots[2]].tolist()
                end = sum(lengths)
                for length in reversed(lengths):
                    end -= length
                    text = os.pread(spill.fileno(), length, end)
                    if len(text) != length:
                        raise OSError("trajectory spill file ended early")
                    fh.write(text)


class _Capped(io.RawIOBase):
    """A raw binary file read from its position up to byte ``end``."""

    def __init__(self, raw, end: int):
        self._raw, self._end = raw, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view:
            return self._raw.readinto(view[: max(0, self._end - self._raw.tell())])


def _load_rows(text) -> np.ndarray:
    """The rows of CSV ``text`` as a (rows, fields) float64 array, parsed as
    read_trajectory_csv has always parsed them."""
    return np.loadtxt(text, delimiter=",", comments=None, ndmin=2)


def _send_rows(pipe: Tuple[int, int], path, start: int, encoding: str) -> None:
    """Parse the rows of ``path`` from byte ``start`` to its end, and write
    their (rows, fields) as two int64 and then their float64 bytes to the
    write end of ``pipe``.  Warnings are raised, so a half with no rows fails.
    """
    os.close(pipe[0])  # a reader that dies leaves this writer no reader
    with open(pipe[1], "wb") as out, open(path, "rb") as raw, warnings.catch_warnings():
        warnings.simplefilter("error")
        raw.seek(start)
        with io.TextIOWrapper(raw, encoding=encoding) as text:
            rows = _load_rows(text)
        out.write(np.array(rows.shape, dtype=np.int64).tobytes())
        out.write(rows.data)


def _load_rows_forked(path, header: str, encoding: str) -> Optional[np.ndarray]:
    """The body of the trajectory CSV ``path``, whose text-mode header line is
    ``header``, parsed by two processes: a forked child parses from the first
    newline at or after the body's byte midpoint to the end, while this process
    parses the rows before it.  None if the file has no such newline before
    its last byte.  A half that fails raises; the child is reaped either way.
    """
    with open(path, "rb") as raw:
        line, head = raw.readline(), header.encode(encoding)
        if line not in (head + b"\r\n", head + b"\n"):
            return None  # the text-mode header line ended some other way
        body, size = raw.tell(), os.fstat(raw.fileno()).st_size
        with mmap.mmap(raw.fileno(), 0, access=mmap.ACCESS_READ) as view:
            mid = view.find(b"\n", body + (size - body) // 2) + 1
    if not 0 < mid < size:
        return None
    pipe = os.pipe()
    with open(pipe[0], "rb") as back_rows:
        try:
            child = _Child(functools.partial(_send_rows, pipe, path, mid, encoding))
        finally:
            os.close(pipe[1])
        with child, open(path, "rb", buffering=0) as raw, warnings.catch_warnings():
            warnings.simplefilter("error")
            raw.seek(body)
            with io.TextIOWrapper(io.BufferedReader(_Capped(raw, mid)), encoding=encoding) as text:
                front = _load_rows(text)
            shape = back_rows.read(16)
            if len(shape) != 16:
                raise OSError("the back half's parser sent no rows")
            rows, cols = np.frombuffer(shape, dtype=np.int64).tolist()
            if cols != front.shape[1]:
                raise ValueError("the two halves have different field counts")
            data = np.empty((len(front) + rows, cols))
            data[: len(front)] = front
            back = memoryview(data[len(front) :]).cast("B")
            if back_rows.readinto(back) != back.nbytes or child.reap():
                raise OSError("the back half's parser failed")
    return data


def read_trajectory_csv(path) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back (weights, lyapunov, kl) from a trajectory CSV.

    A file of at least ``FORKED_READ_MIN_BYTES`` bytes is parsed by two
    processes where ``os.fork`` exists (_load_rows_forked): a forked child
    parses the back half of the rows while this process parses the front
    half.  The values are the same as the serial parse's, bit for bit.  If
    the file cannot be split at a newline, or either half fails to parse, the
    child is killed and reaped and the whole body is parsed serially, so every
    error is the serial reader's.

    ValueError on a bad header, no rows, a wrong field count, a step label
    or a non-finite value.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if len(header) < 4 or header[0] != "step" or header[-2:] != ["lyapunov", "kl"]:
            raise ValueError(f"unrecognized trajectory header: {header}")
        start = fh.tell()
        if not fh.readline():
            raise ValueError("trajectory has no rows")
        data = None
        if hasattr(os, "fork") and os.fstat(fh.fileno()).st_size >= FORKED_READ_MIN_BYTES:
            try:
                data = _load_rows_forked(path, ",".join(header), fh.encoding)
            except Exception:
                pass  # parsed again below, so that the error is the serial reader's
        if data is None:
            fh.seek(start)
            data = _load_rows(fh)
    if data.shape[1] != len(header):
        raise ValueError(f"rows have {data.shape[1]} fields, expected {len(header)}")
    bad = np.flatnonzero(data[:, 0] != np.arange(len(data)))
    if bad.size:
        raise ValueError(f"row {bad[0]} is labeled step {data[bad[0], 0]:g}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {np.argmin(finite)} has a non-finite value")
    return data[:, 1:-2], data[:, -2], data[:, -1]
