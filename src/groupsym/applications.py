"""End-to-end symmetrization experiments built from the core modules.

Every runner drives the same loop: a schedule emits convex weights, the state
mixes under a linear action while the lifted weight vector runs in lockstep,
and the recorded series (fixed-point residual, Lyapunov norm, relative
entropy, conserved-quantity drift, lift-vs-direct gap) certify the run.  The
applications differ only in the action and in what counts as the conserved
structure.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from numpy.fft import fft
from numpy.random import PCG64, Generator

from .actions import (
    LinearAction,
    axis_permutation_action,
    conjugation_action,
    dft_action,
    permutation_action,
    subsystem_permutation_action,
    symmetrizer,
)
from .groups import FiniteGroup, symmetric_group, transposition_index
from .lifted import (
    BLOCK_BYTES,
    ConvexWeights,
    MixingCertificate,
    Signal,
    lifted_series,
    lifted_steps,
    transition_matrix,
)
from .schedules import Schedule, DDBisectionSchedule, _check_seed

__all__ = [
    "ExperimentResult",
    "run_symmetrization",
    "edge_transpositions",
    "run_gossip_consensus",
    "SpectralComparison",
    "spectral_comparison",
    "star_consensus_example",
    "run_probability_symmetrization",
    "run_quantum_gossip",
    "run_dft",
    "run_random_state_generation",
    "run_dynamical_decoupling",
    "birkhoff_decomposition",
    "birkhoff_weights",
]

RESIDUAL_THRESHOLD = 1e-8
# The lift check's tolerance is LIFT_ROUNDOFF * eps * (steps_run + |G|) *
# max(1, ||x0||_inf): float64 round-off of steps_run mixing steps on the direct
# side and of a |G|-term weighted orbit sum on the lifted side.  The factor was
# sized on the DFT action's maps stepped term by term, whose gap reached 1.7 eps
# * (steps_run + |G|) * ||x0||_inf at N=256 over seeds 1-10, 1/19 of the
# tolerance.  A dft run records the Frobenius bound of its Fourier form instead
# (actions._FourierRun): at most 0.15 eps * (steps_run + |G|) * ||x0||_inf over
# the same seeds, with the schedule seed fixed or drawn from the seed.
LIFT_ROUNDOFF = 32.0
EPS = float(np.finfo(np.float64).eps)
# Sampling runs: the lift check's tolerance on TV(empirical, exact endpoint
# law) is exceeded with probability at most this (see sampling_tolerance).
SAMPLING_BETA = 1e-6
# Largest support the sampler draws from by counting cdf points, one pass per
# point; the count is int8, so at most 127.  On a block of WALK_BLOCK_TRIALS
# uniforms the passes stay in cache and beat a binary search at every size up
# to that (one 65,536-draw call, its uniforms included: 0.58 against 2.6 ms at
# 32 points, 1.08 against 3.5 ms at 64, 1.77 against 3.8 ms at 127; an S5
# walk of 10^6 trials over 120-, 64- and 40-point rows, 0.80 against 0.96 s).
THRESHOLD_DRAW_MAX_SUPPORT = 127
# Trials per block of the sampled walk: a block's float64 uniforms and intp
# indices (16 bytes a trial) fill BLOCK_BYTES, and stay in cache through
# every step.
WALK_BLOCK_TRIALS = BLOCK_BYTES // 16
QUANTUM_DIM_CAP = 64
OUTCOME_SIZE_CAP = 8
OUTCOME_AXES_CAP = 4


@dataclass
class ExperimentResult:
    """Everything a run produces, series sized steps_run + 1."""

    residuals: np.ndarray
    lyapunov: np.ndarray
    kl: np.ndarray
    weights_trajectory: np.ndarray  # read-only, (steps_run + 1, |G|), row t = p(t)
    final_state: np.ndarray
    conserved_drift: float
    lift_direct_gap: float
    lift_tolerance: float
    converged: bool
    threshold: float
    steps_run: int
    metadata: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    # F(x0), the orbit average of the initial state; not written to artifacts
    orbit_average: Optional[np.ndarray] = None
    # the signal an engine run realized, drawn as far as the run read it
    signal: Optional[Signal] = None
    # set by the harness (harness.certify_schedule); no runner certifies
    certificate: Optional[MixingCertificate] = None


def lift_roundoff(steps_run: int, order: int, x0: np.ndarray) -> float:
    """The lift check's tolerance for ``steps_run`` steps from x0 (see LIFT_ROUNDOFF)."""
    scale = max(1.0, float(np.abs(x0).max(initial=0.0)))
    return LIFT_ROUNDOFF * EPS * (steps_run + order) * scale


def sampling_tolerance(order: int, trials: int) -> float:
    """The TV distance that ``trials`` draws from a law on ``order`` cells exceed
    with probability at most SAMPLING_BETA.

    The Bretagnolle-Huber-Carol inequality bounds the empirical law of N
    draws over k cells by P(TV > eps) <= 2^k exp(-2 N eps^2); setting that to
    beta gives eps = sqrt((k ln 2 + ln(1/beta)) / (2N)).
    """
    return math.sqrt((order * math.log(2.0) - math.log(SAMPLING_BETA)) / (2.0 * trials))


def _finite(value, what: str, t: int) -> float:
    """``value`` as a float, or a ValueError naming step t if it is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"step {t}: non-finite {what} ({value})")
    return value


def _monitor_value(fn: Callable[[np.ndarray], object], x: np.ndarray, name: str, t: int):
    """A copy of fn(x), which may be a view of a state buffer the next steps overwrite."""
    value = np.array(fn(x))
    if not np.isfinite(value).all():
        raise ValueError(f"step {t}: monitor {name!r} has a non-finite value")
    return value


def run_symmetrization(
    action: LinearAction,
    x0,
    schedule,
    steps: int,
    *,
    threshold: float = RESIDUAL_THRESHOLD,
    early_stop: bool = True,
    monitors: Optional[Dict[str, Callable[[np.ndarray], object]]] = None,
    residual_fn: Optional[Callable[[np.ndarray], float]] = None,
    metadata: Optional[dict] = None,
) -> ExperimentResult:
    """Mix x0 under the schedule while tracking the lifted weight vector.

    The direct state and the lifted weights advance in lockstep; every step
    verifies that the weights reconstruct the state from the initial orbit.
    Monitors are callables of the state whose values must stay at their
    initial value; their worst drift is reported.  A non-finite residual,
    lift gap or monitor value raises a ValueError naming its step.  The
    direct side is the action's ``direct_run`` of x0: it steps, measures
    the residual and the lift gap, returns the orbit average F(x0) as
    ``orbit_average``, and forms the state that monitors, ``residual_fn``
    and ``final_state`` read.  x0 is never written.  ``schedule`` may also
    be a Signal or a sequence of ConvexWeights; the realized Signal is
    returned as ``signal``.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    t_start = time.perf_counter()
    x0 = action.space.validate(x0)
    if not np.isfinite(x0).all():
        raise ValueError("initial state has a non-finite entry")
    if not isinstance(schedule, Schedule):
        schedule = Signal.from_weights(schedule, action.group)
    signal = schedule.realize(steps)
    monitors = dict(monitors or {})

    run = action.direct_run(x0)
    residual = run.residual if residual_fn is None else lambda: residual_fn(run.state())
    lifted = lifted_steps(signal, action.group)
    traj = next(lifted)

    residuals = [_finite(residual(), "fixed-point residual", 0)]
    monitor_series = {name: [_monitor_value(fn, x0, name, 0)] for name, fn in monitors.items()}
    lift_gap = 0.0

    for t, traj in enumerate(lifted):
        idx, w = signal.rows(t, t + 1)
        run.step(idx[0], w[0])
        residuals.append(_finite(residual(), "fixed-point residual", t + 1))
        lift_gap = max(lift_gap, _finite(run.lift_gap(traj[-1]), "lift gap", t + 1))
        for name, fn in monitors.items():
            monitor_series[name].append(_monitor_value(fn, run.state(), name, t + 1))
        if early_stop and residuals[-1] <= threshold:
            break

    steps_run = len(traj) - 1
    traj.setflags(write=False)
    lyap, kl = lifted_series(traj)
    drift = 0.0
    for name, series in monitor_series.items():
        base = series[0]
        for v in series[1:]:
            drift = max(drift, float(np.abs(v - base).max()))

    meta = {
        "schedule": schedule.describe(),
        "steps_requested": steps,
        "threshold": threshold,
        "runtime_seconds": time.perf_counter() - t_start,
        "group_order": action.group.order,
        "action": action.name,
    }
    meta.update(metadata or {})

    return ExperimentResult(
        residuals=np.array(residuals),
        lyapunov=lyap,
        kl=kl,
        weights_trajectory=traj,
        final_state=run.state(),
        conserved_drift=drift,
        lift_direct_gap=lift_gap,
        lift_tolerance=lift_roundoff(steps_run, action.group.order, x0),
        converged=bool(residuals[-1] <= threshold),
        threshold=threshold,
        steps_run=steps_run,
        metadata=meta,
        extras={"conserved_series": {k: np.array(v) for k, v in monitor_series.items()}},
        orbit_average=run.orbit_average,
        signal=signal,
    )


# -- gossip consensus -----------------------------------------------------------


def edge_transpositions(group: FiniteGroup, m: int, edges) -> List[int]:
    """Map node pairs to transposition indices, validating ranges."""
    idxs = []
    for edge in edges:
        j, k = (int(v) for v in edge)
        if not (0 <= j < m and 0 <= k < m):
            raise ValueError(f"edge ({j}, {k}) references nodes outside 0..{m - 1}")
        if j == k:
            raise ValueError(f"edge ({j}, {k}) must join two distinct nodes")
        idxs.append(transposition_index(group, j, k))
    return idxs


def _check_schedule_support(schedule, allowed: set, what: str) -> None:
    if isinstance(schedule, Schedule):
        extra = schedule.union_support() - allowed
        if extra:
            raise ValueError(
                f"schedule support {sorted(extra)} lies outside the declared {what}"
            )


def _run_on_edges(
    action: LinearAction, edges, schedule, x0, steps: int, metadata: dict, monitors, engine
) -> ExperimentResult:
    """The body the S_m protocols share: edge-support check, engine run, target gap.

    ``metadata`` carries the protocol's own keys, starting with its node count
    ``m``; the declared edges are appended to it.
    """
    group = action.group
    allowed = set(edge_transpositions(group, metadata["m"], edges)) | {group.identity}
    _check_schedule_support(schedule, allowed, "edge set")
    metadata = dict(metadata, edges=[list(map(int, e)) for e in edges])
    result = run_symmetrization(
        action, x0, schedule, steps, monitors=monitors, metadata=metadata, **engine
    )
    result.extras["target_gap"] = float(
        np.abs(result.final_state - result.orbit_average).max()
    )
    return result


def run_gossip_consensus(
    m: int, n: int, edges, schedule, x0, steps: int, **engine
) -> ExperimentResult:
    """Pairwise averaging of m agents holding n-dimensional values.

    Each swap edge (j, k) mixed with weight alpha moves both agents toward
    their pairwise mean; with a connected edge process all agents reach the
    barycenter, and every coordinate's mean over agents stays constant.
    ``engine`` keywords go to ``run_symmetrization``.
    """
    action = permutation_action(m, n, symmetric_group(m))

    def component_mean(c):
        return lambda state: float(state.reshape(m, n)[:, c].mean())

    monitors = {f"component_mean_{c}": component_mean(c) for c in range(n)}
    result = _run_on_edges(
        action,
        edges,
        schedule,
        x0,
        steps,
        {"application": "gossip", "m": m, "n": n},
        monitors,
        engine,
    )
    result.extras["barycenter"] = result.orbit_average.reshape(m, n)[0]
    return result


# -- spectral comparison ----------------------------------------------------------


@dataclass(frozen=True)
class SpectralComparison:
    """Dominant non-unit eigenvalue moduli of the direct and lifted maps."""

    sigma_a: float
    sigma_m: float
    degenerate_a: bool
    degenerate_m: bool
    eigenvalues_a: tuple
    eigenvalues_m: tuple


def _sigma(matrix: np.ndarray, tol: float = 1e-9) -> Tuple[float, bool, np.ndarray]:
    eigs = np.linalg.eigvals(matrix)
    keep = np.abs(eigs - 1.0) > tol
    if not keep.any():
        return 1.0, True, eigs
    return float(np.abs(eigs[keep]).max()), False, eigs


def spectral_comparison(consensus_matrix, lifted_signal) -> SpectralComparison:
    """Compare convergence factors of a direct map and its lifted transition.

    sigma is the largest modulus among eigenvalues that differ from 1; if
    every eigenvalue equals 1 the map is flagged degenerate and sigma is
    reported as 1.
    """
    A = np.asarray(consensus_matrix, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"consensus matrix must be square, got shape {A.shape}")
    if isinstance(lifted_signal, Schedule):
        (s,) = lifted_signal.realize(1)
    elif isinstance(lifted_signal, ConvexWeights):
        s = lifted_signal
    else:
        raise ValueError("lifted_signal must be ConvexWeights or a Schedule")
    M = transition_matrix(s).matrix
    sigma_a, degen_a, eigs_a = _sigma(A)
    sigma_m, degen_m, eigs_m = _sigma(M)
    return SpectralComparison(
        sigma_a=sigma_a,
        sigma_m=sigma_m,
        degenerate_a=degen_a,
        degenerate_m=degen_m,
        eigenvalues_a=tuple(complex(v) for v in eigs_a),
        eigenvalues_m=tuple(complex(v) for v in eigs_m),
    )


def star_consensus_example(alpha: float):
    """Three agents averaging toward agent 0 with rate alpha.

    Returns (A, signal, group): the 3x3 doubly stochastic one-shot map and
    the constant convex-weight signal whose transition matrix lifts it.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5], got {alpha}")
    A = np.array(
        [
            [1.0 - 2.0 * alpha, alpha, alpha],
            [alpha, 1.0 - alpha, 0.0],
            [alpha, 0.0, 1.0 - alpha],
        ]
    )
    group = symmetric_group(3)
    w = np.zeros(6)
    w[group.identity] = 1.0 - 2.0 * alpha
    w[transposition_index(group, 0, 1)] = alpha
    w[transposition_index(group, 0, 2)] = alpha
    return A, ConvexWeights(w, group), group


# -- probability symmetrization ---------------------------------------------------


def run_probability_symmetrization(
    m: int, outcome_sizes, edges, schedule, joint0, steps: int, **engine
) -> ExperimentResult:
    """Exchange mixing of a joint distribution over m finite outcome sets.

    Swapping variables j and k with probability alpha replaces the joint
    tensor by the matching convex combination of index transpositions; the
    limit is exchangeable and total probability is conserved.  ``engine``
    keywords go to ``run_symmetrization``.
    """
    if isinstance(outcome_sizes, (int, np.integer)):
        sizes = [int(outcome_sizes)] * m
    else:
        sizes = [int(v) for v in outcome_sizes]
    if len(sizes) != m:
        raise ValueError(f"expected {m} outcome sizes, got {len(sizes)}")
    if len(set(sizes)) != 1:
        raise ValueError(
            f"outcome sizes must all be equal for exchange symmetry, got {sizes}"
        )
    size = sizes[0]
    if not 1 <= size <= OUTCOME_SIZE_CAP:
        raise ValueError(f"outcome size {size} outside 1..{OUTCOME_SIZE_CAP}")
    if not 1 <= m <= OUTCOME_AXES_CAP:
        raise ValueError(f"m={m} outside 1..{OUTCOME_AXES_CAP}")

    joint = np.asarray(joint0, dtype=np.float64)
    if joint.shape != (size,) * m:
        raise ValueError(
            f"joint distribution has shape {joint.shape}, expected {(size,) * m}"
        )
    if joint.min() < -1e-12:
        raise ValueError("joint distribution has negative entries")
    if abs(joint.sum() - 1.0) > 1e-9:
        raise ValueError(f"joint distribution sums to {joint.sum()}, expected 1")

    return _run_on_edges(
        axis_permutation_action(m, size, symmetric_group(m)),
        edges,
        schedule,
        joint,
        steps,
        {"application": "prob-sym", "m": m, "outcome_size": size},
        {"total_mass": lambda P: float(P.sum())},
        engine,
    )


# -- quantum gossip ----------------------------------------------------------------


def run_quantum_gossip(
    m: int, local_dim: int, edges, schedule, X0, steps: int, **engine
) -> ExperimentResult:
    """Swap-conjugation mixing of a Hermitian operator on m subsystems.

    Edge (j, k) acts by the subsystem-swap unitary; the limit is the average
    over all subsystem permutations.  Trace, Hermiticity, and the spectrum of
    the orbit average are monitored.  ``engine`` keywords go to
    ``run_symmetrization``.
    """
    dim = local_dim**m
    if dim > QUANTUM_DIM_CAP:
        raise ValueError(
            f"total dimension {dim} exceeds the dense cap {QUANTUM_DIM_CAP}"
        )
    X0 = np.asarray(X0, dtype=np.complex128)
    if X0.shape != (dim, dim):
        raise ValueError(f"X0 has shape {X0.shape}, expected {(dim, dim)}")
    herm = float(np.abs(X0 - X0.conj().T).max())
    if herm > 1e-10:
        raise ValueError(f"X0 is not Hermitian (defect {herm:.3e})")
    group = symmetric_group(m)
    action = subsystem_permutation_action(group, local_dim)

    monitors = {
        "trace_real": lambda X: float(np.trace(X).real),
        "trace_imag": lambda X: float(np.trace(X).imag),
        "hermiticity": lambda X: float(np.abs(X - X.conj().T).max()),
        "average_spectrum": lambda X: np.sort(
            np.linalg.eigvalsh(symmetrizer(action, X))
        ),
    }
    result = _run_on_edges(
        action,
        edges,
        schedule,
        X0,
        steps,
        {"application": "quantum-gossip", "m": m, "local_dim": local_dim},
        monitors,
        engine,
    )
    result.extras["target_spectrum"] = np.sort(np.linalg.eigvalsh(result.orbit_average))
    return result


# -- distributed discrete Fourier transform ----------------------------------------


def run_dft(N: int, x, schedule, steps: int, **engine) -> ExperimentResult:
    """Fourier transform by symmetrization: mix X = x 1^T under shift-phase maps.

    The orbit average carries chi = DFT(x)/N in its first row; the run reports
    how far the trajectory's first row is from chi at the end.  ``engine``
    keywords go to ``run_symmetrization``.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (N,):
        raise ValueError(f"x has shape {x.shape}, expected ({N},)")
    action = dft_action(N)
    X0 = np.outer(x, np.ones(N))
    chi = fft(x) / N

    result = run_symmetrization(
        action, X0, schedule, steps, metadata={"application": "dft", "N": N}, **engine
    )
    x_hat = result.orbit_average
    result.extras["chi"] = chi
    result.extras["x_hat_exact"] = x_hat
    result.extras["exact_first_row_gap"] = float(np.abs(x_hat[0] - chi).max())
    result.extras["first_row_gap"] = float(np.abs(result.final_state[0] - chi).max())
    return result


# -- random state generation --------------------------------------------------------


def _orbit_collision(rows: np.ndarray, atol: float = 1e-12) -> Optional[Tuple[int, int]]:
    """The lexicographically smallest pair g < h with max|rows[g] - rows[h]| < atol.

    ``rows`` is an orbit matrix, row g holding a(g, y0).ravel().  A pair
    within atol in max norm is within atol in the first coordinate (its real
    part for a complex state), and the difference of the pair's sorted keys
    is the very subtraction the full-row test makes there.  So after one sort
    by that coordinate only pairs less than atol apart in it are candidates.
    They are taken offset by offset in sorted order until no pair at an
    offset is that close, and each is confirmed by the full-row test.  When
    the coordinate separates the orbit this costs O(|G| log |G|) instead of
    |G|(|G|-1)/2 row comparisons.
    """
    order = np.argsort(rows[:, 0].real, kind="stable")
    key = rows[order, 0].real
    chunk = max(1, BLOCK_BYTES // (16 * rows.shape[1]))
    best = None
    for d in range(1, key.size):
        near = np.flatnonzero(key[d:] - key[:-d] < atol)
        if not near.size:
            break
        g = np.minimum(order[near], order[near + d])
        h = np.maximum(order[near], order[near + d])
        if best is not None:
            keep = (g < best[0]) | ((g == best[0]) & (h < best[1]))
            g, h = g[keep], h[keep]
        for a in range(0, g.size, chunk):
            gs, hs = g[a : a + chunk], h[a : a + chunk]
            hit = np.abs(rows[gs] - rows[hs]).max(axis=1) < atol
            if hit.any():
                gs, hs = gs[hit], hs[hit]
                i = np.lexsort((hs, gs))[0]
                pair = (int(gs[i]), int(hs[i]))
                if best is None or pair < best:
                    best = pair
    return best


def _cdf(p: np.ndarray) -> np.ndarray:
    """``choice``'s cdf of the weights ``p``: their cumulative sums over the last one."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: Generator, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``rng.choice(p.size, size=u.size, p=p)`` for ``cdf = _cdf(p)``: the same
    draws from the same stream, with their uniforms written into ``u``.

    ``choice`` draws one uniform u per sample and returns
    ``cdf.searchsorted(u, side="right")``: the number of cdf points at or
    below u.  Up to THRESHOLD_DRAW_MAX_SUPPORT points that count is taken one
    comparison pass per point, which beats the binary search, and held as
    int8 (a view of the first pass's booleans).  cdf[-1] is 1 > u, so only
    the interior points can count; for a single point the first pass adds
    nothing.
    """
    rng.random(out=u)
    if cdf.size > THRESHOLD_DRAW_MAX_SUPPORT:
        return cdf.searchsorted(u, side="right")
    draws = (u >= cdf[0]).view(np.int8)
    for point in cdf[1:-1]:
        draws += u >= point
    return draws


def _run_steps(width: int, order: int, steps: int) -> int:
    """Steps c of one composed run of the walk: the most, up to ``steps``, whose
    table of width**c translation rows of ``order`` int32 entries fits in
    BLOCK_BYTES // 16, so that it stays in cache beside the block's arrays;
    1 when two steps' table does not fit."""
    c = 1
    while c < steps and 4 * order * width ** (c + 1) <= BLOCK_BYTES // 16:
        c += 1
    return c


def walk_bytes(trials: int) -> int:
    """Bytes the sampled walk of ``trials`` trials holds at its peak.

    Each of two workers holds one block of trials at 24 bytes a trial (the
    float64 uniforms, whose bytes then hold the gather index; the int32
    walk; a composed run's row offsets, at most int32; and one intp
    transient: a binary-search draw, ``take``'s cast of a narrower draw or
    ``bincount``'s of the walk), plus its two composed-table buffers.
    """
    return 2 * (24 * min(trials, WALK_BLOCK_TRIALS) + 2 * (BLOCK_BYTES // 16))


class _Walk:
    """The sampled walk of ``trials`` trials over a realized signal, by blocks.

    Trial i draws its step-t element from the (t * trials + i)-th output of
    PCG64(seed), as a walk of all trials drawing one step at a time would.
    A block of WALK_BLOCK_TRIALS trials runs every step on its own
    generator, moved forward to its first trial's uniform before each step,
    so its arrays stay in cache.  Blocks may run in any order and on any
    thread: their endpoint counts are integers and add up to the same sums.

    The steps go in runs of ``_run_steps`` steps.  A run's draws d_0 ..
    d_{c-1}, each an entry of its step's K-point support, form one mixed-radix
    row index sum_j d_j * K**j of the run's composed table, whose row holds
    the exact translation h_{d_{c-1}} o ... o h_{d_0}; the block gathers its
    walk through that table once per run instead of once per step.
    """

    def __init__(self, group: FiniteGroup, signal: Signal, trials: int, seed: int):
        support, weights = signal.rows(0, len(signal))
        # Drawing over the row alone is the same stream as drawing over all
        # of G: the cumulative weights at the support are the same sums, and
        # the padding's zero weights repeat the last, 1 > u, so each uniform
        # draw lands on the same element.
        self._cdfs = [_cdf(w) for w in weights]
        # the translation rows of every element the signal uses, gathered once
        elements, slot = np.unique(support, return_inverse=True)
        self._rows = group.rows(elements).ravel()
        self._offsets = slot.reshape(support.shape) * group.order
        self._identity, self._order = group.identity, group.order
        self._trials, self._seed, self._block = trials, seed, WALK_BLOCK_TRIALS
        self._width = support.shape[1]
        self._run = _run_steps(self._width, group.order, len(signal))

    def _compose(self, run: range, table: np.ndarray, spare: np.ndarray) -> np.ndarray:
        """The flat translation table of the steps in ``run``.

        Row r = sum_j d_j * K**j (entries r * order to (r + 1) * order) maps
        each element b to the product of the drawn elements of the run's
        steps with b, the last step's leftmost.  Level j is built by sending
        each row of level j - 1 through the row of each of step j's K
        support points; ``table`` and ``spare`` trade roles at each level.
        """
        order, rows = self._order, self._rows
        for d, offset in enumerate(self._offsets[run.start]):
            table[d * order : (d + 1) * order] = rows[offset : offset + order]
        size = self._width * order
        for t in run[1:]:
            for d, offset in enumerate(self._offsets[t]):
                rows[offset : offset + order].take(
                    table[:size], out=spare[d * size : (d + 1) * size], mode="clip"
                )
            table, spare = spare, table
            size *= self._width
        return table[:size]

    def block(self, lo: int) -> np.ndarray:
        """Endpoint counts of the trials of the block that starts at trial ``lo``."""
        hi = min(lo + self._block, self._trials)
        bits = PCG64(self._seed)
        rng, position = Generator(bits), 0
        walk = np.full(hi - lo, self._identity, dtype=np.int32)
        steps, c = len(self._cdfs), self._run
        if not steps:
            # no draws: the walk's endpoints are where it starts
            return np.bincount(walk, minlength=self._order)
        # The block's arrays are rewritten in place every step: a block-sized
        # array freed each step would be handed back to the OS and faulted in
        # again by the next.  Once a step's uniforms are drawn, their bytes
        # hold its weighted draw and then the gather index.
        u = np.empty(hi - lo)
        # a one-step run takes its row offsets straight into the index
        index = row = u.view(np.intp)
        if c > 1:
            tables = np.empty((2, self._width**c * self._order), dtype=np.int32)
            # a composed row offset plus a walk entry stays below the table's
            # size, so the smallest signed type that holds -size holds it
            row = np.empty(hi - lo, dtype=np.min_scalar_type(-tables.shape[1]))
            digit = u.view(row.dtype)[: hi - lo]
        for start in range(0, steps, c):
            run = range(start, min(start + c, steps))
            source = self._rows if c == 1 else self._compose(run, *tables)
            for j, t in enumerate(run):
                bits.advance(t * self._trials + lo - position)
                draws = _draw(rng, self._cdfs[t], u)
                position = t * self._trials + hi
                if c == 1:
                    # a one-step run reads its support's rows where they are
                    self._offsets[t].take(draws, out=row, mode="clip")
                elif j == 0:
                    np.multiply(draws, self._order, out=row, dtype=row.dtype)
                else:
                    weight = self._order * self._width**j
                    row += np.multiply(draws, weight, out=digit, dtype=row.dtype)
                # freed before the next step draws: a binary-search draw is
                # as large as the gather index
                del draws
            # each trial moves to entry walk[i] of the row its run drew; every
            # index is in range, and mode="clip" writes the gather into walk
            # unbuffered
            np.add(row, walk, out=index)
            source.take(index, out=walk, mode="clip")
        return np.bincount(walk, minlength=self._order)

    def counts(self) -> np.ndarray:
        """Endpoint counts of all trials.

        The calling thread and one more take blocks from one iterator.  After
        either one raises, neither takes another block; the other thread is
        joined and the first exception re-raised.  A single block runs on the
        calling thread alone.
        """
        if self._trials <= self._block:
            return self.block(0)
        starts = iter(range(0, self._trials, self._block))
        lock = threading.Lock()
        failed: List[BaseException] = []

        def work(counts: np.ndarray) -> None:
            try:
                while True:
                    with lock:
                        lo = None if failed else next(starts, None)
                    if lo is None:
                        return
                    counts += self.block(lo)
            except BaseException as exc:
                with lock:
                    failed.append(exc)

        ours, theirs = np.zeros((2, self._order), dtype=np.intp)
        helper = threading.Thread(target=work, args=(theirs,), name="random-state-walk")
        helper.start()
        try:
            work(ours)
        finally:
            helper.join()
        if failed:
            raise failed[0]
        return ours + theirs


def run_random_state_generation(
    action: LinearAction,
    y0,
    schedule,
    t_steps: int,
    trials: int,
    seed: int,
    *,
    threshold: float = 0.01,
) -> ExperimentResult:
    """Sample group-element trajectories and compare the endpoint law to uniform.

    Each trial draws g(t) from the step weights independently and composes
    (``_Walk``, in blocks of trials on two threads); the endpoint
    distribution over the orbit is exactly the lifted weight vector
    p(t_steps), so the empirical histogram is checked against both it and
    the uniform law.  The lift tolerance is sampling_tolerance at
    SAMPLING_BETA, which correct code exceeds with probability at most beta.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seed = _check_seed(seed)
    group = action.group
    y0 = action.space.validate(y0)
    if not np.isfinite(y0).all():
        raise ValueError("initial state has a non-finite entry")

    collision = _orbit_collision(action.orbit_matrix(y0))
    if collision is not None:
        raise ValueError(
            f"orbit collision between elements {collision[0]} and {collision[1]}; "
            "the orbit must have full group size"
        )

    if not isinstance(schedule, Schedule):
        schedule = Signal.from_weights(schedule, group)
    signal = schedule.realize(t_steps)
    for traj in lifted_steps(signal, group):
        pass
    traj.setflags(write=False)
    exact_law = traj[-1]

    counts = _Walk(group, signal, trials, seed).counts()
    empirical = counts / float(trials)

    uniform = np.full(group.order, 1.0 / group.order)
    tv_empirical_uniform = 0.5 * float(np.abs(empirical - uniform).sum())
    tv_exact_uniform_series = np.array(
        [0.5 * float(np.abs(row - uniform).sum()) for row in traj]
    )
    tv_empirical_exact = 0.5 * float(np.abs(empirical - exact_law).sum())

    lyap, kl = lifted_series(traj)
    return ExperimentResult(
        residuals=tv_exact_uniform_series,
        lyapunov=lyap,
        kl=kl,
        weights_trajectory=traj,
        final_state=empirical,
        conserved_drift=0.0,
        lift_direct_gap=tv_empirical_exact,
        lift_tolerance=sampling_tolerance(group.order, trials),
        converged=bool(tv_empirical_uniform <= threshold),
        threshold=threshold,
        steps_run=t_steps,
        metadata={
            "application": "random-state",
            "schedule": schedule.describe(),
            "trials": trials,
            "seed": seed,
            "rng": "pcg64",
            "group_order": group.order,
            "sampling_beta": SAMPLING_BETA,
        },
        extras={
            "empirical": empirical,
            "exact_law": exact_law,
            "tv_empirical_uniform": tv_empirical_uniform,
            "tv_empirical_exact": tv_empirical_exact,
            "orbit_size": group.order,
        },
    )


# -- dynamical decoupling -------------------------------------------------------------


def run_dynamical_decoupling(
    group: FiniteGroup,
    H_d,
    group_unitaries,
    chooser,
    n_max: int,
    alpha: float = 0.5,
    *,
    dt: Optional[float] = None,
    frame_cap: int = 12,
    threshold: float = RESIDUAL_THRESHOLD,
    class_atol: float = 1e-10,
) -> ExperimentResult:
    """Bisection decoupling: average a drift Hamiltonian to a scalar.

    Iteration n mixes conjugation by the chosen h(n) into the averaged
    Hamiltonian; the residual series is the off-scalar Frobenius norm of the
    running average.  The realized frame sequence and, when dt is given, the
    gap between the exact ordered-product propagator and the first-order
    average are attached for diagnostics.  ``chooser`` may be a built
    DDBisectionSchedule, whose own alpha then applies.
    """
    action = conjugation_action(group, group_unitaries)
    H = action.space.validate(np.asarray(H_d, dtype=np.complex128))
    dim = H.shape[0]
    herm = float(np.abs(H - H.conj().T).max())
    if herm > 1e-10:
        raise ValueError(f"H_d is not Hermitian (defect {herm:.3e})")

    average = symmetrizer(action, H)
    scalar_part = (np.trace(average) / dim) * np.eye(dim)
    class_residual = float(np.linalg.norm(average - scalar_part))
    if class_residual > class_atol:
        raise ValueError(
            "the group average of H_d is not scalar "
            f"(off-scalar residual {class_residual:.3e}); "
            "this perturbation class cannot be decoupled by this group"
        )

    if isinstance(chooser, DDBisectionSchedule):
        schedule = chooser
    else:
        schedule = DDBisectionSchedule(group, chooser, alpha)

    def off_scalar(X: np.ndarray) -> float:
        return float(np.linalg.norm(X - (np.trace(X) / dim) * np.eye(dim)))

    result = run_symmetrization(
        action,
        H,
        schedule,
        n_max,
        threshold=threshold,
        early_stop=False,
        monitors={"trace_real": lambda X: float(np.trace(X).real)},
        residual_fn=off_scalar,
        metadata={"application": "dd", "n_max": n_max, "alpha": schedule.alpha},
    )

    frames_n = min(n_max, frame_cap)
    frames = schedule.expand_frames(frames_n)
    result.extras["frames"] = frames
    result.extras["frames_depth"] = frames_n
    result.extras["class_residual"] = class_residual
    result.extras["drift_norm"] = float(np.linalg.norm(H))

    if dt is not None:
        # scipy is imported here and in birkhoff_decomposition only, so that
        # no other run pays for loading it
        from scipy.linalg import expm

        gaps = {}
        frame_hams = {}
        for n in range(frames_n + 1):
            seq = schedule.expand_frames(n)
            U_exact = np.eye(dim, dtype=np.complex128)
            for f in seq:
                if f not in frame_hams:
                    frame_hams[f] = action.apply(f, H)
                U_exact = expm(-1j * dt * frame_hams[f]) @ U_exact
            H_bar_n = sum(
                result.weights_trajectory[n][g] * action.apply(g, H)
                for g in range(group.order)
            )
            U_avg = expm(-1j * dt * (2**n) * H_bar_n)
            gaps[n] = float(np.linalg.norm(U_exact - U_avg, 2))
        result.extras["propagator_gap"] = gaps
        result.extras["dt"] = dt
    return result


# -- doubly stochastic decompositions -------------------------------------------------


def birkhoff_decomposition(A, *, atol: float = 1e-9, max_terms: Optional[int] = None):
    """Greedy convex decomposition of a doubly stochastic matrix.

    Returns (weights, perms) with perms rows pi satisfying
    A = sum_k weights[k] * P_k, P_k[i, pi_k[i]] = 1, up to atol.  Greedy
    extraction: repeatedly find a perfect matching on the positive support
    and remove the largest multiple it allows.  Decompositions are not
    unique; this picks one.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    n = A.shape[0]
    if A.min() < -atol:
        raise ValueError("matrix has negative entries")
    rows = np.abs(A.sum(axis=1) - 1.0).max()
    cols = np.abs(A.sum(axis=0) - 1.0).max()
    if max(rows, cols) > 1e-8:
        raise ValueError(
            f"matrix is not doubly stochastic (row defect {rows:.3e}, "
            f"column defect {cols:.3e})"
        )
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    residual = A.copy()
    weights = []
    perms = []
    cap = max_terms if max_terms is not None else n * n + 1
    for _ in range(cap):
        if residual.max() <= atol:
            break
        support = csr_matrix((residual > atol).astype(np.int8))
        match = maximum_bipartite_matching(support, perm_type="column")
        if (match < 0).any():
            raise ValueError(
                "no perfect matching on the positive support; "
                "residual is not doubly stochastic within tolerance"
            )
        pi = np.asarray(match, dtype=np.int64)
        w = float(residual[np.arange(n), pi].min())
        weights.append(w)
        perms.append(pi)
        residual[np.arange(n), pi] -= w
    if residual.max() > atol:
        raise ValueError("decomposition did not converge within the term cap")
    return np.array(weights), np.array(perms, dtype=np.int64)


def birkhoff_weights(A, group: FiniteGroup, *, atol: float = 1e-9) -> ConvexWeights:
    """Express a doubly stochastic matrix as convex weights over a symmetric group.

    The matrix rows act as agents: entry A[i, j] is the weight of routing j's
    value to slot i, so each extracted permutation matrix P with
    P[i, pi[i]] = 1 is the block-permutation matrix of the group element
    whose permutation sends pi[i] to i.
    """
    from .groups import permutation_index

    weights, perms = birkhoff_decomposition(A, atol=atol)
    w = np.zeros(group.order)
    for wk, pi in zip(weights, perms):
        sigma = np.argsort(pi)
        w[permutation_index(group, sigma)] += wk
    total = w.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"decomposition weights sum to {total}")
    return ConvexWeights(w / total if abs(total - 1.0) > 1e-15 else w, group)
