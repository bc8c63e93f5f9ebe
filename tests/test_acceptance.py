"""Acceptance suite: one test per numbered criterion.

Each test states its tolerances inline, enforces its runtime budget, and
prints a single PASS line (visible with -s) once every assertion holds.
Failures surface as ordinary pytest failures naming the criterion.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from groupsym.actions import (
    conjugation_action,
    dft_action,
    fixed_point_residual,
    pauli_matrices,
    pauli_quotient_group,
    permutation_action,
    regular_action,
    subsystem_permutation_unitaries,
    symmetrizer,
)
from groupsym.applications import (
    run_dft,
    run_dynamical_decoupling,
    run_gossip_consensus,
    run_quantum_gossip,
    run_random_state_generation,
    run_symmetrization,
    spectral_comparison,
    star_consensus_example,
)
from groupsym.config import DEFAULT_TOLERANCES, parse_config
from groupsym.groups import cyclic_group, symmetric_group, transposition_index
from groupsym.harness import certify_schedule, execute, verify
from groupsym.lifted import (
    ConvexWeights,
    convolve,
    envelope_bounds,
    find_mixing_certificate,
    lyapunov_norm,
    relative_entropy,
    run_lifted,
)
from groupsym.schedules import (
    CyclicSchedule,
    DDBisectionSchedule,
    RandomGossipSchedule,
    frame_histogram,
)

S3 = symmetric_group(3)
TRANSPOSITIONS = [
    transposition_index(S3, 0, 1),
    transposition_index(S3, 1, 2),
    transposition_index(S3, 0, 2),
]
ALL_EDGES = [[0, 1], [0, 2], [1, 2]]


def report(criterion: int, description: str, elapsed: float, budget: float, **margins):
    parts = ", ".join(f"{k}={v:.3e}" for k, v in margins.items())
    suffix = f" ({parts})" if parts else ""
    print(f"PASS criterion {criterion}: {description}{suffix} [{elapsed:.2f}s < {budget:.0f}s]")


def random_weights(rng, group):
    return ConvexWeights(rng.dirichlet(np.ones(group.order)), group)


def test_criterion_01_spectral_factors_and_crossover():
    """sigma(A) = 0.55 and sigma(lift) = 0.8 at alpha = 0.45 within 1e-10;
    the lifted factor exceeds the consensus factor exactly for alpha > 0.4."""
    start = time.perf_counter()
    A, s, _ = star_consensus_example(0.45)
    comp = spectral_comparison(A, s)
    assert abs(comp.sigma_a - 0.55) < 1e-10
    assert abs(comp.sigma_m - 0.80) < 1e-10

    for alpha in np.arange(0.41, 0.501, 0.01):
        A, s, _ = star_consensus_example(float(alpha))
        comp = spectral_comparison(A, s)
        assert comp.sigma_m > comp.sigma_a, f"no crossover at alpha={alpha}"
    for alpha in np.arange(0.05, 0.401, 0.05):
        A, s, _ = star_consensus_example(float(alpha))
        comp = spectral_comparison(A, s)
        assert comp.sigma_m <= comp.sigma_a + 1e-12, f"crossover too early at alpha={alpha}"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "spectral factors 0.55 / 0.8 at alpha=0.45, crossover above alpha=0.4",
           elapsed, 1.0)


def test_criterion_02_envelope_bounds_hold_for_fifty_windows():
    """Certify the S3 transposition cycle at alpha = 1/2, then check
    y(k) <= p_g(kT) <= x(k) and max|p - 1/6| <= rho^k for k <= 50, tol 1e-12."""
    start = time.perf_counter()
    schedule = CyclicSchedule(S3, TRANSPOSITIONS, 0.5)
    horizon = 50 * 3 + 3
    signal = schedule.realize(horizon)
    cert = find_mixing_certificate(signal, max_T=6, horizon=horizon)
    assert cert.satisfied
    T, delta = cert.T, cert.delta
    rho = 1.0 - 6 * delta

    traj = run_lifted(ConvexWeights.point_mass(S3), signal, 50 * T)
    worst = np.inf
    for k in range(51):
        p = traj[k * T].weights
        upper, lower = envelope_bounds(6, delta, k)
        worst = min(
            worst,
            upper + 1e-12 - p.max(),
            p.min() - (lower - 1e-12),
            rho**k + 1e-12 - np.abs(p - 1.0 / 6.0).max(),
        )
    assert worst >= 0.0

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"T={T}, delta={delta}: envelopes hold for 50 windows",
           elapsed, 1.0, worst_slack=worst)


def test_criterion_03_lyapunov_and_kl_monotonicity():
    """10^4 random (s, p) pairs on groups of order <= 24 never increase
    ||p - uniform||^2 (slack 1e-12); certified runs decrease KL strictly
    across windows whenever p is distinguishable from uniform."""
    start = time.perf_counter()
    groups = [
        S3,
        symmetric_group(4),
        cyclic_group(8),
        cyclic_group(12),
        cyclic_group(24),
        pauli_quotient_group(),
    ]
    assert all(g.order <= 24 for g in groups)
    rng = np.random.default_rng(31415)
    worst_increase = -np.inf
    for i in range(10_000):
        group = groups[i % len(groups)]
        s = random_weights(rng, group)
        p = random_weights(rng, group)
        increase = lyapunov_norm(convolve(s, p)) - lyapunov_norm(p)
        worst_increase = max(worst_increase, increase)
        assert increase <= 1e-12
    assert worst_increase <= 1e-12

    schedule = CyclicSchedule(S3, TRANSPOSITIONS, 0.5)
    signal = schedule.realize(120)
    cert = find_mixing_certificate(signal, max_T=6, horizon=120)
    assert cert.satisfied
    T = cert.T
    uniform = ConvexWeights.uniform(S3)
    min_margin = np.inf
    for trial in range(20):
        traj = run_lifted(random_weights(rng, S3), signal, 60)
        for t in range(len(traj) - T):
            if np.abs(traj[t].weights - 1.0 / 6.0).max() <= 1e-7:
                continue
            gap = relative_entropy(traj[t], uniform) - relative_entropy(traj[t + T], uniform)
            min_margin = min(min_margin, gap)
            assert gap > 0.0
    assert min_margin > 0.0

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "10^4 Lyapunov steps nonincreasing, certified KL strictly decreasing",
           elapsed, 30.0, worst_increase=worst_increase, kl_margin=min_margin)


def test_criterion_04_lift_reconstruction_and_orbit_average():
    """S3 acting on 3 blocks of size 2: 50 random-signal steps reconstruct the
    direct trajectory within 1e-8, and a certified run's limit matches the
    brute-force 6-permutation orbit average within 1e-8."""
    start = time.perf_counter()
    action = permutation_action(3, 2)
    rng = np.random.default_rng(2718)
    x0 = rng.standard_normal(6)

    signal = [random_weights(rng, S3) for _ in range(50)]
    result = run_symmetrization(action, x0, signal, 50, early_stop=False)
    assert result.lift_direct_gap <= 1e-8

    schedule = CyclicSchedule(S3, TRANSPOSITIONS, 0.5)
    certified = run_symmetrization(action, x0, schedule, 400, threshold=1e-10)
    certificate = certify_schedule(certified.signal, 400, DEFAULT_TOLERANCES)
    assert certificate is not None and certificate.satisfied
    brute = sum(action.apply(g, x0) for g in range(6)) / 6.0
    limit_gap = float(np.abs(certified.final_state - brute).max())
    assert limit_gap <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, "lift reconstructs direct trajectory; certified limit = orbit average",
           elapsed, 5.0, reconstruction=result.lift_direct_gap, limit_gap=limit_gap)


def test_criterion_05_randomized_convergence_and_adversary():
    """200 seeded random-gossip runs on S3 (connected support, alpha in
    [0.3, 0.7]) reach residual < 1e-8 within 5000 steps in >= 99% of trials;
    the subgroup-confined schedule never converges in 100% of trials."""
    start = time.perf_counter()
    state_rng = np.random.default_rng(99)
    converged = 0
    for seed in range(200):
        schedule = RandomGossipSchedule(S3, TRANSPOSITIONS, (0.3, 0.7), seed)
        x0 = state_rng.standard_normal(3)
        result = run_gossip_consensus(
            3, 1, ALL_EDGES, schedule, x0, 5000, threshold=1e-8
        )
        converged += int(result.converged)
    rate = converged / 200.0
    assert rate >= 0.99

    # support confined to one transposition: node 2 never interacts, so the
    # fixed-point residual stays bounded away from zero from generic starts
    stuck = 0
    for seed in range(20):
        schedule = RandomGossipSchedule(S3, TRANSPOSITIONS[:1], (0.3, 0.7), seed)
        x0 = state_rng.standard_normal(3)
        result = run_gossip_consensus(
            3, 1, [[0, 1]], schedule, x0, 1500, threshold=1e-8
        )
        assert not result.converged
        assert result.residuals[-1] > 1e-6
        stuck += 1
    assert stuck == 20

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, f"{converged}/200 connected runs converged, 20/20 confined runs did not",
           elapsed, 60.0, rate=rate)


def test_criterion_06_dft_first_row():
    """For N in {4, 8} and 20 random complex vectors, the exact symmetrizer's
    first row equals the explicit Fourier sum within 1e-10; a certified
    randomized schedule drives the trajectory's first-row error below 1e-6."""
    start = time.perf_counter()
    rng = np.random.default_rng(161803)
    worst_exact = 0.0
    worst_dyn = 0.0
    for N in (4, 8):
        group = cyclic_group(N)
        action = dft_action(N, group)
        for trial in range(10):
            x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            X0 = np.outer(x, np.ones(N))
            first_row = symmetrizer(action, X0)[0]
            # explicit first-row formula, written out as the plain sum
            chi = np.array(
                [
                    sum(x[k] * np.exp(-2j * np.pi * k * n / N) for k in range(N)) / N
                    for n in range(N)
                ]
            )
            gap = float(np.abs(first_row - chi).max())
            worst_exact = max(worst_exact, gap)
            assert gap <= 1e-10

            schedule = RandomGossipSchedule(
                group, list(range(1, N)), (0.3, 0.7), seed=1000 * N + trial
            )
            result = run_dft(N, x, schedule, 2000, threshold=1e-8)
            certificate = certify_schedule(result.signal, 2000, DEFAULT_TOLERANCES)
            assert certificate is not None and certificate.satisfied
            assert result.extras["first_row_gap"] < 1e-6
            worst_dyn = max(worst_dyn, result.extras["first_row_gap"])

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, "symmetrizer first row = Fourier sum; certified runs below 1e-6",
           elapsed, 10.0, exact_gap=worst_exact, dynamic_gap=worst_dyn)


def test_criterion_07_dd_first_order_suppression():
    """Pauli twirl of 10 random traceless Hermitians has Frobenius norm
    < 1e-10; the {X, Z} bisection drives the off-scalar residual below
    1e-3 * ||H_d|| by n = 20; n = 2 frames are [e, X, Z, ZX], each 1/4."""
    start = time.perf_counter()
    group = pauli_quotient_group()
    sigma = pauli_matrices()
    action = conjugation_action(group, sigma)
    rng = np.random.default_rng(4242)
    X_idx, Z_idx = 1, 3

    worst_twirl = 0.0
    for _ in range(10):
        coeffs = rng.standard_normal(3)
        H = np.tensordot(coeffs, sigma[1:], axes=1)
        twirled = symmetrizer(action, H)
        oracle = sum(sigma[g] @ H @ sigma[g].conj().T for g in range(4)) / 4.0
        assert np.linalg.norm(twirled - oracle) < 1e-12
        norm = float(np.linalg.norm(twirled))
        worst_twirl = max(worst_twirl, norm)
        assert norm < 1e-10

    coeffs = rng.standard_normal(3)
    H = np.tensordot(coeffs, sigma[1:], axes=1)
    result = run_dynamical_decoupling(group, H, sigma, [X_idx, Z_idx], 20)
    bound = 1e-3 * float(np.linalg.norm(H))
    assert result.residuals[-1] <= bound
    assert result.steps_run == 20

    schedule = DDBisectionSchedule(group, [X_idx, Z_idx], 0.5)
    frames = schedule.expand_frames(2)
    assert frames == [0, X_idx, Z_idx, group.mul(Z_idx, X_idx)]
    assert frames == [0, 1, 3, 2]
    hist = frame_histogram(group, frames)
    assert np.array_equal(hist, np.full(4, 0.25))

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(7, "Pauli twirl kills traceless drift; frames [e,X,Z,ZX] each 1/4",
           elapsed, 5.0, twirl_norm=worst_twirl, final_residual=result.residuals[-1])


def test_criterion_08_random_state_law():
    """Z8 regular action, 10^5 trials, 30 steps: TV(empirical, exact lifted
    law) < 0.01 and p(30) sits inside the certified envelope around uniform."""
    start = time.perf_counter()
    group = cyclic_group(8)
    action = regular_action(group)
    schedule = CyclicSchedule(group, [1], 0.5)
    y0 = np.zeros(8)
    y0[0] = 1.0
    result = run_random_state_generation(action, y0, schedule, 30, 100_000, seed=2026)

    tv = result.extras["tv_empirical_exact"]
    assert tv < 0.01

    signal = schedule.realize(30)
    cert = find_mixing_certificate(signal, max_T=8, horizon=30)
    assert cert.satisfied
    k = 30 // cert.T
    rho = 1.0 - 8 * cert.delta
    exact = result.extras["exact_law"]
    upper, lower = envelope_bounds(8, cert.delta, k)
    assert exact.max() <= upper + 1e-12
    assert exact.min() >= lower - 1e-12
    envelope_gap = float(np.abs(exact - 0.125).max())
    assert envelope_gap <= rho**k + 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(8, f"TV(empirical, exact) = {tv:.4f} < 0.01; p(30) inside envelope",
           elapsed, 30.0, tv=tv, envelope_gap=envelope_gap)


def test_criterion_09_quantum_gossip_projection():
    """3 qubits, random Hermitian start, certified schedule: the final
    operator is swap-invariant (< 1e-8), trace drifts < 1e-10, and matches
    the 6-term conjugation average within 1e-8."""
    start = time.perf_counter()
    rng = np.random.default_rng(7071)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    X0 = (A + A.conj().T) / 2.0
    schedule = CyclicSchedule(S3, TRANSPOSITIONS, 0.5)
    result = run_quantum_gossip(3, 2, ALL_EDGES, schedule, X0, 500, threshold=1e-10)
    certificate = certify_schedule(result.signal, 500, DEFAULT_TOLERANCES)
    assert certificate is not None and certificate.satisfied

    U = subsystem_permutation_unitaries(S3, 2)
    action = conjugation_action(S3, U)
    invariance = fixed_point_residual(action, result.final_state)
    assert invariance < 1e-8

    trace_series = np.asarray(result.extras["conserved_series"]["trace_real"])
    trace_drift = float(np.abs(trace_series - trace_series[0]).max())
    assert trace_drift < 1e-10

    oracle = sum(U[g] @ X0 @ U[g].conj().T for g in range(6)) / 6.0
    oracle_gap = float(np.abs(result.final_state - oracle).max())
    assert oracle_gap <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(9, "final operator swap-invariant and equal to the 6-term average",
           elapsed, 10.0, invariance=invariance, trace_drift=trace_drift,
           oracle_gap=oracle_gap)


def test_criterion_10_reproducibility_and_artifact_checks(tmp_path):
    """Same config and seed give byte-identical trajectory CSVs, and verify
    passes on harness artifacts for every application."""
    start = time.perf_counter()
    configs = [
        {"schema_version": 1, "application": "gossip", "seed": 7, "steps": 300},
        {
            "schema_version": 1,
            "application": "prob-sym",
            "params": {"m": 2, "outcome_size": 3},
            "seed": 7,
            "steps": 400,
        },
        {
            "schema_version": 1,
            "application": "quantum-gossip",
            "params": {"m": 3, "local_dim": 2},
            "seed": 7,
            "steps": 400,
        },
        {
            "schema_version": 1,
            "application": "dft",
            "params": {"N": 8},
            "schedule": {"kind": "random-gossip", "support": [1, 2, 3, 4, 5, 6, 7]},
            "seed": 7,
            "steps": 800,
        },
        {
            "schema_version": 1,
            "application": "random-state",
            "params": {"group": {"kind": "cyclic", "n": 8}},
            "schedule": {"kind": "cyclic", "elements": [1], "alpha": 0.5},
            "seed": 2026,
            "steps": 30,
            "trials": 100_000,
        },
        {
            "schema_version": 1,
            "application": "dd",
            "schedule": {"kind": "dd-bisection", "chooser": ["X", "Z"]},
            "initial_state": {
                "source": "inline",
                "data": {
                    "shape": [2, 2],
                    "complex": True,
                    "data": [[[0.7, 0.0], [0.3, 0.0]], [[0.3, 0.0], [-0.7, 0.0]]],
                },
            },
            "steps": 8,
        },
    ]
    verified = 0
    for i, doc in enumerate(configs):
        cfg = parse_config(doc)
        first = execute(cfg, out_dir=str(tmp_path / f"{doc['application']}-a"))
        second = execute(cfg, out_dir=str(tmp_path / f"{doc['application']}-b"))
        bytes_a = open(os.path.join(first.directory, "trajectory.csv"), "rb").read()
        bytes_b = open(os.path.join(second.directory, "trajectory.csv"), "rb").read()
        assert bytes_a == bytes_b, f"{doc['application']}: rerun differed"
        report_a = verify(first.directory)
        assert report_a.passed, (
            doc["application"],
            [c.line() for c in report_a.checks if c.status == "fail"],
        )
        verified += 1
    assert verified == len(configs)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(10, f"{verified} applications byte-identical on rerun, all artifacts verified",
           elapsed, 60.0)
