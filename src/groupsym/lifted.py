"""Convex-weight dynamics lifted onto a finite group.

A signal assigns each step a convex weight vector s(t) over group elements;
the lifted state evolves by group convolution

    p_g(t+1) = sum_h s_h(t) * p_{h^-1 g}(t),

equivalently p(t+1) = M(t) p(t) with M(t) = sum_h s_h(t) * Pi_h, where Pi_h
permutes indices by left translation.  The uniform vector is always a fixed
point; mixing certificates quantify how fast trajectories contract onto it.
"""

from __future__ import annotations

import mmap
import os
import signal
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

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
# A trajectory CSV of at least this many fields is formatted by two processes
# where os.fork exists: a forked child claims rows from the back while this
# process does the caller's overlapped work and then claims rows from the
# front.  Measured in fresh processes on two CPUs, a forked write lost to the
# serial write at 100k fields of dense weights (55 against 48 ms) and won at
# 200k, both for dense weights and for rows of mostly exact zeros.
FORKED_WRITE_MIN_FIELDS = 200_000
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


def _row(row_format, weights, lyapunov, kl, t: int) -> str:
    return row_format % (t, *weights[t].tolist(), lyapunov[t], kl[t])


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

    Floats are written with 17 significant digits so parsing returns the
    exact doubles that were computed.  Rows end in CRLF, and no field ever
    needs quoting, so the bytes match ``csv.writer`` output.

    ``overlap``, if given, is called once in this process before any row is
    written here.  A file of at least ``FORKED_WRITE_MIN_FIELDS`` fields is
    formatted by two processes where ``os.fork`` exists: a child forked
    first formats rows, claimed one at a time from the back, into an unnamed
    spill file beside ``path``, while this process runs ``overlap`` and then
    claims rows from the front and writes them to ``path``.  When no rows are
    left it reaps the child and appends the child's rows in reverse order.
    The bytes are the same however the rows fall.  A child that fails raises OSError; if this
    process fails first, ``overlap`` included, the child is killed.  Either
    way it is reaped before this returns or raises.
    """
    weights = np.asarray(weights)
    steps, order = weights.shape
    if len(lyapunov) != steps or len(kl) != steps:
        raise ValueError("column lengths do not match the trajectory")
    header = ",".join(["step"] + [f"g{i}" for i in range(order)] + ["lyapunov", "kl"]) + "\r\n"
    row_format = "%d," + ",".join([TRAJECTORY_FLOAT_FORMAT] * (order + 2)) + "\r\n"
    columns = (row_format, weights, lyapunov, kl)
    if not hasattr(os, "fork") or not steps or steps * (order + 3) < FORKED_WRITE_MIN_FIELDS:
        if overlap is not None:
            overlap()
        with open(path, "w", newline="") as fh:
            fh.write(header)
            fh.writelines(_row(*columns, t) for t in range(steps))
        return

    directory = os.path.dirname(os.path.abspath(path))
    # shared slots: the unclaimed rows [lo, hi), the child's row count, then
    # the byte length of each row it spilled
    with tempfile.TemporaryFile(dir=directory) as spill, mmap.mmap(-1, 8 * (3 + steps)) as shared, \
            memoryview(shared).cast("q") as slots:
        slots[1] = steps - 1  # the child's first row, claimed before it starts
        pid = os.fork()
        if pid == 0:
            # only format and write, then leave without unwinding the caller
            try:
                t = steps - 1
                while t is not None:
                    text = _row(*columns, t).encode()
                    spill.write(text)
                    slots[3 + slots[2]] = len(text)
                    slots[2] += 1
                    t = _claim(spill, slots, front=False)
                spill.flush()
                os._exit(0)
            except BaseException:
                os._exit(1)
        try:
            if overlap is not None:
                overlap()
            with open(path, "wb") as fh:
                fh.write(header.encode())
                t = _claim(spill, slots, front=True)
                while t is not None:
                    fh.write(_row(*columns, t).encode())
                    t = _claim(spill, slots, front=True)
                status = os.waitpid(pid, 0)[1]
                pid = 0
                if status:
                    code = os.waitstatus_to_exitcode(status)
                    raise OSError(f"trajectory writer process failed (exit status {code})")
                lengths = slots[3 : 3 + slots[2]].tolist()
                end = sum(lengths)
                for length in reversed(lengths):
                    end -= length
                    text = os.pread(spill.fileno(), length, end)
                    if len(text) != length:
                        raise OSError("trajectory spill file ended early")
                    fh.write(text)
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def read_trajectory_csv(path) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back (weights, lyapunov, kl) from a trajectory CSV.

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
        fh.seek(start)
        data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"rows have {data.shape[1]} fields, expected {len(header)}")
    bad = np.flatnonzero(data[:, 0] != np.arange(len(data)))
    if bad.size:
        raise ValueError(f"row {bad[0]} is labeled step {data[bad[0], 0]:g}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {np.argmin(finite)} has a non-finite value")
    return data[:, 1:-2], data[:, -2], data[:, -1]
