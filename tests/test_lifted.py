"""Convolution dynamics, mixing certificates, and diagnostic functionals."""

from __future__ import annotations

import csv
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupsym.lifted as lifted_module
from groupsym.actions import regular_action
from groupsym.applications import run_random_state_generation, run_symmetrization
from groupsym.groups import cyclic_group, group_from_table, symmetric_group, transposition_index
from groupsym.lifted import (
    TRAJECTORY_FLOAT_FORMAT,
    ConvexWeights,
    GroupMismatchError,
    MixingCertificate,
    TransitionMatrix,
    check_mixing,
    convolve,
    envelope_bounds,
    find_mixing_certificate,
    laplacian,
    lifted_steps,
    lyapunov_norm,
    rate_bound,
    read_trajectory_csv,
    relative_entropy,
    run_lifted,
    transition_matrix,
    window_weights,
    write_trajectory_csv,
)
from groupsym.schedules import RandomGossipSchedule, RandomSubsetSchedule

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
Z6 = cyclic_group(6)
S3 = symmetric_group(3)


def permutation_matrices(group):
    """Oracle: left-translation matrices Pi_h with Pi_h e_k = e_{h*k}."""
    mats = []
    for h in range(group.order):
        m = np.zeros((group.order, group.order))
        for k in range(group.order):
            m[group.mul(h, k), k] = 1.0
        mats.append(m)
    return mats


def s3_pair_cycle(alpha=0.5):
    """Cyclic two-point signal over the three transpositions of S3."""
    swaps = [
        transposition_index(S3, 0, 1),
        transposition_index(S3, 1, 2),
        transposition_index(S3, 0, 2),
    ]
    signal = []
    for g in swaps:
        w = np.zeros(S3.order)
        w[S3.identity] = 1.0 - alpha
        w[g] = alpha
        signal.append(ConvexWeights(w, S3))
    return signal


def cycle_signal(base, steps):
    return [base[t % len(base)] for t in range(steps)]


def random_weights(group, rng):
    return ConvexWeights(rng.dirichlet(np.ones(group.order)), group)


# -- ConvexWeights -----------------------------------------------------------


def test_weights_validation():
    w = ConvexWeights([0.25, 0.75], Z2)
    assert w.weights[1] == 0.75
    with pytest.raises(ValueError, match="below"):
        ConvexWeights([1.1, -0.1], Z2)
    with pytest.raises(ValueError, match="sum"):
        ConvexWeights([0.6, 0.6], Z2)
    with pytest.raises(ValueError, match="shape|expected"):
        ConvexWeights([1.0], Z2)
    # NaN passes every comparison above, so it is refused first
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="finite"):
            ConvexWeights(bad, Z2)


def test_weights_clamp_and_renormalize():
    # tiny negative round-off is clamped
    w = ConvexWeights([1.0 + 1e-13, -1e-13], Z2)
    assert w.weights[1] == 0.0
    # sums drifting beyond 1e-13 are renormalized back to 1
    drifted = np.array([0.5, 0.5]) * (1.0 + 5e-13)
    w = ConvexWeights(drifted, Z2)
    assert abs(w.weights.sum() - 1.0) < 1e-15


def test_point_mass_and_uniform():
    d = ConvexWeights.point_mass(S3)
    assert d.weights[S3.identity] == 1.0
    assert d.support().tolist() == [S3.identity]
    u = ConvexWeights.uniform(S3)
    assert np.all(u.weights == pytest.approx(1 / 6))


# -- convolution -------------------------------------------------------------


def test_identity_point_mass_is_neutral():
    rng = np.random.default_rng(0)
    p = random_weights(S3, rng)
    e = ConvexWeights.point_mass(S3)
    assert np.allclose(convolve(e, p).weights, p.weights, atol=1e-15)
    s = random_weights(S3, rng)
    assert np.allclose(convolve(s, e).weights, s.weights, atol=1e-15)


def test_convolution_z2_by_hand():
    # one step of s = (0.55, 0.45) applied to p = (1, 0):
    # matrix [[0.55, 0.45], [0.45, 0.55]] times (1, 0) = (0.55, 0.45)
    s = ConvexWeights([0.55, 0.45], Z2)
    p = ConvexWeights.point_mass(Z2)
    out = convolve(s, p)
    assert out.weights == pytest.approx([0.55, 0.45], abs=1e-15)


def test_uniform_is_fixed_point():
    rng = np.random.default_rng(1)
    u = ConvexWeights.uniform(S3)
    for _ in range(20):
        s = random_weights(S3, rng)
        assert np.abs(convolve(s, u).weights - u.weights).max() < 1e-12


def test_convolution_group_mismatch():
    with pytest.raises(GroupMismatchError):
        convolve(ConvexWeights.uniform(Z2), ConvexWeights.uniform(S3))


@pytest.mark.parametrize("group", [Z4, Z6, S3, symmetric_group(4)], ids=str)
def test_matrix_and_convolution_paths_agree(group):
    rng = np.random.default_rng(group.order)
    for _ in range(10):
        s = random_weights(group, rng)
        p = random_weights(group, rng)
        via_matrix = transition_matrix(s).matrix @ p.weights
        via_convolution = convolve(s, p).weights
        assert np.abs(via_matrix - via_convolution).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    s_raw=st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6),
    p_raw=st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6),
)
def test_convolution_stays_in_simplex(s_raw, p_raw):
    s = ConvexWeights(np.array(s_raw) / np.sum(s_raw), S3)
    p = ConvexWeights(np.array(p_raw) / np.sum(p_raw), S3)
    out = convolve(s, p)
    assert out.weights.min() >= 0.0
    assert abs(out.weights.sum() - 1.0) <= 1e-12
    # Lyapunov distance to uniform never increases
    assert lyapunov_norm(out) <= lyapunov_norm(p) + 1e-12


# -- transition matrices -----------------------------------------------------


def test_transition_matrix_of_point_mass_is_identity():
    m = transition_matrix(ConvexWeights.point_mass(S3)).matrix
    assert np.array_equal(m, np.eye(6))


def test_transition_matrix_z2():
    alpha = 0.3
    m = transition_matrix(ConvexWeights([1 - alpha, alpha], Z2)).matrix
    assert np.allclose(m, [[0.7, 0.3], [0.3, 0.7]], atol=1e-15)


def test_transition_matrix_equals_weighted_translations():
    rng = np.random.default_rng(2)
    mats = permutation_matrices(S3)
    for _ in range(5):
        s = random_weights(S3, rng)
        oracle = sum(s.weights[h] * mats[h] for h in range(6))
        assert np.allclose(transition_matrix(s).matrix, oracle, atol=1e-15)


def test_transition_matrix_doubly_stochastic():
    rng = np.random.default_rng(3)
    for group in (Z6, S3, symmetric_group(4)):
        m = transition_matrix(random_weights(group, rng)).matrix
        assert np.abs(m.sum(axis=0) - 1).max() < 1e-12
        assert np.abs(m.sum(axis=1) - 1).max() < 1e-12


def test_transition_matrix_validation():
    with pytest.raises(ValueError, match="column|row"):
        TransitionMatrix(np.eye(2) * 1.5, Z2)


# -- window weights ----------------------------------------------------------


def test_window_of_length_one_is_the_signal():
    signal = s3_pair_cycle()
    q = window_weights(signal, 1, 1)
    assert np.array_equal(q.weights, signal[1].weights)


def test_window_weights_z2_uniformizes():
    s = ConvexWeights([0.5, 0.5], Z2)
    q = window_weights([s, s], 0, 2)
    assert q.weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_window_matches_ordered_matrix_product():
    signal = cycle_signal(s3_pair_cycle(), 6)
    mats = permutation_matrices(S3)
    for t in (0, 1, 2):
        T = 3
        q = window_weights(signal, t, T)
        product = np.eye(6)
        for i in range(T):
            product = transition_matrix(signal[t + i]).matrix @ product
        recomposed = sum(q.weights[g] * mats[g] for g in range(6))
        assert np.allclose(recomposed, product, atol=1e-14)
        # identity column of the product is q itself
        assert np.allclose(product[:, S3.identity], q.weights, atol=1e-14)


def test_window_weights_bounds():
    signal = s3_pair_cycle()
    with pytest.raises(ValueError, match=">= 1"):
        window_weights(signal, 0, 0)
    with pytest.raises(ValueError, match="exceeds"):
        window_weights(signal, 2, 3)


# -- mixing certificates -----------------------------------------------------


def test_identity_signal_never_mixes():
    e = ConvexWeights.point_mass(S3)
    cert = check_mixing([e] * 10, 0, 10, 3, 1e-9)
    assert not cert.satisfied
    t, g = cert.witness
    assert g != S3.identity


def test_s3_cycle_mixes_at_window_three():
    signal = cycle_signal(s3_pair_cycle(), 30)
    assert check_mixing(signal, 0, 30, 3, 0.1).satisfied
    cert = check_mixing(signal, 0, 30, 3, 0.13)
    assert not cert.satisfied  # achieved minimum is exactly 1/8


def test_find_certificate_s3_cycle():
    signal = cycle_signal(s3_pair_cycle(), 30)
    cert = find_mixing_certificate(signal, max_T=12)
    assert cert.satisfied
    assert cert.T == 3
    assert cert.delta == pytest.approx(0.125, abs=1e-15)
    assert cert.delta <= 1.0 / S3.order


def test_find_certificate_constant_generator_signal():
    # s = (1/2 identity, 1/2 generator) on Z4 first covers the group at T = 3
    s = ConvexWeights([0.5, 0.5, 0.0, 0.0], Z4)
    cert = find_mixing_certificate([s] * 20, max_T=10)
    assert cert.satisfied
    assert cert.T == 3
    assert cert.delta == pytest.approx(1 / 8, abs=1e-15)


def test_subgroup_support_never_certifies():
    # support {0, 2} stays inside the even-residue subgroup of Z6
    s = ConvexWeights([0.5, 0.0, 0.5, 0.0, 0.0, 0.0], Z6)
    signal = [s] * 40
    cert = find_mixing_certificate(signal, max_T=24)
    assert not cert.satisfied
    t, g = cert.witness
    assert g % 2 == 1
    for T in (1, 4, 9, 24):
        assert not check_mixing(signal, 0, 40, T, 0.0).satisfied


def test_check_mixing_range_errors():
    signal = cycle_signal(s3_pair_cycle(), 10)
    with pytest.raises(ValueError, match="horizon"):
        check_mixing(signal, 0, 2, 3, 0.1)
    with pytest.raises(ValueError, match="exceeds"):
        check_mixing(signal, 5, 10, 3, 0.1)


# -- window kernel against the scalar reference ----------------------------


def reference_window(signal, t, T):
    """Scalar oracle: q(t, T) by T separate convolutions."""
    q = ConvexWeights.point_mass(signal[t].group)
    for i in range(T):
        q = convolve(signal[t + i], q)
    return q


def reference_check_mixing(signal, t0, horizon, T, delta):
    for t in range(t0, t0 + horizon - T + 1):
        q = reference_window(signal, t, T)
        g = int(np.argmin(q.weights))
        if q.weights[g] <= delta:
            return MixingCertificate(T, delta, False, witness=(t, g))
    return MixingCertificate(T, delta, True)


def reference_certificate(signal, *, max_T, t0=0, horizon=None, delta_floor=0.0):
    """Scalar oracle: every start, one convolution at a time, all T to max_T."""
    if horizon is None:
        horizon = len(signal) - t0
    max_T = min(max_T, horizon)
    group = signal[t0].group
    mins = np.full(max_T + 1, np.inf)
    argmins = [None] * (max_T + 1)
    for t in range(t0, t0 + horizon):
        q = ConvexWeights.point_mass(group)
        for T in range(1, min(max_T, t0 + horizon - t) + 1):
            q = convolve(signal[t + T - 1], q)
            g = int(np.argmin(q.weights))
            if q.weights[g] < mins[T]:
                mins[T] = q.weights[g]
                argmins[T] = (t, g)
    for T in range(1, max_T + 1):
        if mins[T] > delta_floor:
            return MixingCertificate(T, float(mins[T]), True)
    return MixingCertificate(max_T, float(mins[max_T]), False, witness=argmins[max_T])


def relabeled_z5():
    """Z5 with its elements permuted so that the identity is element 3."""
    sigma = np.array([3, 0, 4, 1, 2])
    table = np.empty((5, 5), dtype=int)
    for a in range(5):
        for b in range(5):
            table[sigma[a], sigma[b]] = sigma[(a + b) % 5]
    return group_from_table(table)


def kernel_signals():
    """Signals with supports of 1 to |G| elements and several identity labels."""
    s4 = symmetric_group(4)
    z5 = relabeled_z5()
    rng = np.random.default_rng(5)
    non_identity = [  # two-point steps that never touch the identity
        ConvexWeights(np.bincount([1, 2], weights=[a, 1.0 - a], minlength=5), z5)
        for a in rng.uniform(0.2, 0.8, size=30)
    ]
    return {
        "gossip-s4": RandomGossipSchedule(s4, range(1, 24, 5), (0.3, 0.7), 3).realize(40),
        "subset-s4": RandomSubsetSchedule(s4, range(1, 24), (0.3, 0.9), 4).realize(40),
        "subset-z5-relabeled": RandomSubsetSchedule(z5, [0, 1, 2, 4], (0.2, 0.8), 5).realize(40),
        "dense-s3": [random_weights(S3, rng) for _ in range(30)],
        # sums of 1 + 6e-14 pass unrenormalized, so window sums drift past
        # RENORM_DRIFT after a few steps and exercise the renormalization
        "drifting-s3": [
            ConvexWeights(w / w.sum() * (1.0 + 6e-14), S3)
            for w in rng.uniform(0.1, 1.0, size=(30, 6))
        ],
        "non-identity-z5": non_identity,
        "subgroup-z6": [ConvexWeights([0.5, 0.0, 0.5, 0.0, 0.0, 0.0], Z6)] * 25,
        "s3-cycle": cycle_signal(s3_pair_cycle(0.3), 30),
    }


def chunk_budgets(group):
    """lifted.BLOCK_BYTES values: the default, then 1, 2 and 3 starts per chunk.

    The default takes every kernel signal in one chunk; 2 and 3 leave a short
    last chunk on most window lengths.  The chunk rule charges 32 bytes per
    entry of a row.
    """
    return [lifted_module.BLOCK_BYTES] + [32 * group.order * rows for rows in (1, 2, 3)]


@pytest.mark.parametrize("name", sorted(kernel_signals()))
def test_certificate_kernel_matches_scalar_reference(name, monkeypatch):
    signal = kernel_signals()[name]
    n = len(signal)
    cases = [
        dict(max_T=12),
        dict(max_T=n + 5),  # max_T beyond the horizon
        dict(max_T=6, t0=3, horizon=n - 7),
        dict(max_T=4, t0=n - 4),
        dict(max_T=8, delta_floor=1e-3),
        dict(max_T=3, delta_floor=0.2),  # unsatisfied: witness at max_T
        dict(max_T=1, t0=2, horizon=1),
    ]
    expected = [reference_certificate(signal, **kwargs) for kwargs in cases]
    for budget in chunk_budgets(signal[0].group):
        monkeypatch.setattr(lifted_module, "BLOCK_BYTES", budget)
        for kwargs, reference in zip(cases, expected):
            assert find_mixing_certificate(signal, **kwargs) == reference, (budget, kwargs)


@pytest.mark.parametrize("name", sorted(kernel_signals()))
def test_check_mixing_and_windows_match_scalar_reference(name, monkeypatch):
    signal = kernel_signals()[name]
    n = len(signal)
    for budget in chunk_budgets(signal[0].group):
        monkeypatch.setattr(lifted_module, "BLOCK_BYTES", budget)
        for t0, horizon, T in ((0, n, 1), (0, n, 5), (2, n - 6, 4), (n - 7, 7, 7)):
            floor = reference_window(signal, t0 + horizon - T, T).weights.min()
            for delta in (0.0, floor, 0.05, 0.5):
                assert check_mixing(signal, t0, horizon, T, delta) == reference_check_mixing(
                    signal, t0, horizon, T, delta
                ), budget
            for t in (t0, t0 + horizon - T):
                got = window_weights(signal, t, T)
                assert np.array_equal(got.weights, reference_window(signal, t, T).weights)


@pytest.mark.parametrize("name", sorted(kernel_signals()))
def test_lifted_steps_match_iterated_convolve(name, monkeypatch):
    signal = kernel_signals()[name]
    group = signal[0].group
    expected = np.array([p.weights for p in reference_trajectory(signal)])
    for budget in chunk_budgets(group):
        monkeypatch.setattr(lifted_module, "BLOCK_BYTES", budget)
        for t, traj in enumerate(lifted_steps(signal, group)):
            assert np.array_equal(traj, expected[: t + 1]), budget


def test_window_kernel_allocates_no_float_block_per_call():
    s6 = symmetric_group(6)
    rows = max(1, lifted_module.BLOCK_BYTES // (32 * s6.order))  # one full chunk
    signal = RandomSubsetSchedule(s6, range(1, s6.order, 7), (0.3, 0.9), 2).realize(rows)
    idx, w = signal.idx, signal.w
    q = np.zeros((rows, s6.order))
    q[:, s6.identity] = 1.0
    work = lifted_module._workspace(rows, s6.order)
    tracemalloc.start()
    try:
        lifted_module._advance(q, idx, w, s6, work)  # ranks the translation rows
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        lifted_module._advance(q, idx, w, s6, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # only the int32 translation rows (half a float64 block) are gathered per call
    assert peak - start < q.nbytes
    expected = [convolve(s, convolve(s, ConvexWeights.point_mass(s6))).weights for s in signal]
    assert np.array_equal(q, np.array(expected))


def test_certificate_search_makes_no_convolve_calls(monkeypatch):
    calls = []

    def counting_convolve(s, p):
        calls.append(1)
        return convolve(s, p)

    monkeypatch.setattr(lifted_module, "convolve", counting_convolve)
    signal = kernel_signals()["subset-s4"]
    find_mixing_certificate(signal, max_T=10)
    check_mixing(signal, 0, len(signal), 4, 0.0)
    window_weights(signal, 3, 6)
    assert calls == []


def test_certificate_rejects_mixed_groups():
    signal = cycle_signal(s3_pair_cycle(), 6) + [ConvexWeights.uniform(Z6)]
    with pytest.raises(GroupMismatchError):
        find_mixing_certificate(signal, max_T=3)


# -- lifted runs -------------------------------------------------------------


def test_run_lifted_zero_steps():
    p0 = ConvexWeights.point_mass(S3)
    traj = run_lifted(p0, [], 0)
    assert len(traj) == 1 and traj[0] is p0


def test_run_lifted_signal_exhausted():
    p0 = ConvexWeights.point_mass(S3)
    with pytest.raises(ValueError, match="exhausted"):
        run_lifted(p0, s3_pair_cycle(), 5)


def test_run_lifted_uniformizes_z2_in_one_step():
    s = ConvexWeights([0.5, 0.5], Z2)
    traj = run_lifted(ConvexWeights.point_mass(Z2), [s], 1)
    assert traj[-1].weights == pytest.approx([0.5, 0.5], abs=0)


def test_run_lifted_trajectory_length():
    signal = cycle_signal(s3_pair_cycle(), 25)
    traj = run_lifted(ConvexWeights.point_mass(S3), signal, 25)
    assert len(traj) == 26


def reference_trajectory(signal):
    """Scalar oracle: [p(0), ..., p(T)] by iterated convolve from the identity."""
    traj = [ConvexWeights.point_mass(signal[0].group)]
    for s in signal:
        traj.append(convolve(s, traj[-1]))
    return traj


@pytest.mark.parametrize("name", sorted(kernel_signals()))
def test_engine_sampler_and_run_lifted_match_iterated_convolve(name):
    signal = kernel_signals()[name]
    group, steps = signal[0].group, len(signal)
    reference = reference_trajectory(signal)
    expected = np.array([p.weights for p in reference])
    # distinct entries, so the regular orbit has full size for the sampler
    y0 = np.random.default_rng(11).permutation(group.order).astype(float)
    action = regular_action(group)
    engine = run_symmetrization(action, y0, signal, steps, early_stop=False)
    sampler = run_random_state_generation(action, y0, signal, steps, trials=10, seed=1)
    lifted = run_lifted(reference[0], signal, steps)
    assert np.array_equal(np.array([p.weights for p in lifted]), expected)
    assert np.array_equal(sampler.extras["exact_law"], expected[-1])
    uniform = ConvexWeights.uniform(group)
    for result in (engine, sampler):
        assert np.array_equal(result.weights_trajectory, expected)
        assert result.lyapunov.tolist() == [lyapunov_norm(p) for p in reference]
        assert result.kl.tolist() == [relative_entropy(p, uniform) for p in reference]


# -- contraction envelopes ---------------------------------------------------


def test_envelope_closed_form():
    x, y = envelope_bounds(2, 0.1, 3)
    assert x - y == pytest.approx(0.8**3, abs=1e-15)
    assert x == pytest.approx(0.5 + 0.5 * 0.8**3, abs=1e-15)
    assert y == pytest.approx(0.5 - 0.5 * 0.8**3, abs=1e-15)


def test_envelope_collapses_at_maximal_delta():
    x, y = envelope_bounds(4, 0.25, 1)
    assert x == pytest.approx(0.25) and y == pytest.approx(0.25)


def test_envelope_validation():
    with pytest.raises(ValueError):
        envelope_bounds(4, 0.0, 1)
    with pytest.raises(ValueError):
        envelope_bounds(4, 0.3, 1)
    with pytest.raises(ValueError):
        envelope_bounds(4, 0.1, -1)


def test_rate_bound_window_floor():
    assert rate_bound(Z2, 5, 0.1, 14) == pytest.approx(0.8**2, abs=1e-15)
    assert rate_bound(Z2, 5, 0.1, 15) == pytest.approx(0.8**3, abs=1e-15)
    ts = np.arange(0, 60)
    vals = [rate_bound(Z2, 5, 0.1, int(t)) for t in ts]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_envelopes_contain_certified_trajectory():
    steps = 60
    signal = cycle_signal(s3_pair_cycle(), steps)
    cert = find_mixing_certificate(signal, max_T=6)
    traj = run_lifted(ConvexWeights.point_mass(S3), signal, steps)
    for k in range(steps // cert.T + 1):
        p = traj[k * cert.T].weights
        x, y = envelope_bounds(S3.order, cert.delta, k)
        assert p.min() >= y - 1e-12
        assert p.max() <= x + 1e-12


# -- diagnostics -------------------------------------------------------------


def test_lyapunov_norm_values():
    assert lyapunov_norm(ConvexWeights.uniform(S3)) == 0.0
    assert lyapunov_norm(ConvexWeights.point_mass(Z2)) == pytest.approx(0.5)


def test_lyapunov_monotone_along_runs():
    rng = np.random.default_rng(4)
    p = random_weights(S3, rng)
    for _ in range(200):
        s = random_weights(S3, rng)
        nxt = convolve(s, p)
        assert lyapunov_norm(nxt) <= lyapunov_norm(p) + 1e-12
        p = nxt


def test_relative_entropy_values():
    u = ConvexWeights.uniform(S3)
    assert relative_entropy(u, u) == pytest.approx(0.0, abs=1e-15)
    d = ConvexWeights.point_mass(S3)
    assert relative_entropy(d, u) == pytest.approx(math.log(6), abs=1e-12)


def test_relative_entropy_domain_error():
    p = ConvexWeights([0.5, 0.5], Z2)
    q = ConvexWeights.point_mass(Z2)
    with pytest.raises(ValueError, match="undefined"):
        relative_entropy(p, q)


def test_relative_entropy_strictly_decreases_on_certified_windows():
    steps = 30
    signal = cycle_signal(s3_pair_cycle(), steps)
    cert = find_mixing_certificate(signal, max_T=6)
    traj = run_lifted(ConvexWeights.point_mass(S3), signal, steps)
    u = ConvexWeights.uniform(S3)
    for t in range(steps - cert.T):
        p = traj[t]
        if np.abs(p.weights - 1 / 6).max() <= 1e-7:
            continue
        drop = relative_entropy(p, u) - relative_entropy(traj[t + cert.T], u)
        assert drop > 0.0


def test_laplacian():
    m = transition_matrix(ConvexWeights.point_mass(S3))
    assert np.array_equal(laplacian(m), np.zeros((6, 6)))
    alpha = 0.45
    mz = transition_matrix(ConvexWeights([1 - alpha, alpha], Z2))
    assert np.allclose(laplacian(mz), [[alpha, -alpha], [-alpha, alpha]], atol=1e-15)
    rng = np.random.default_rng(5)
    lap = laplacian(transition_matrix(random_weights(S3, rng)))
    assert np.abs(lap.sum(axis=0)).max() < 1e-12
    assert np.abs(lap.sum(axis=1)).max() < 1e-12


def test_subgroup_support_confines_trajectory():
    s = ConvexWeights([0.5, 0.0, 0.5, 0.0, 0.0, 0.0], Z6)
    traj = run_lifted(ConvexWeights.point_mass(Z6), [s] * 30, 30)
    for p in traj:
        assert p.weights[1::2].max() == 0.0


# -- CSV round trip ----------------------------------------------------------


def test_trajectory_csv_roundtrip(tmp_path):
    steps = 12
    signal = cycle_signal(s3_pair_cycle(), steps)
    traj = run_lifted(ConvexWeights.point_mass(S3), signal, steps)
    weights = np.array([p.weights for p in traj])
    u = ConvexWeights.uniform(S3)
    lyap = [lyapunov_norm(p) for p in traj]
    kl = [relative_entropy(p, u) for p in traj]
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, weights, lyap, kl)
    header = path.read_text().splitlines()[0]
    assert header == "step,g0,g1,g2,g3,g4,g5,lyapunov,kl"
    w2, l2, k2 = read_trajectory_csv(path)
    assert np.array_equal(w2, weights)
    assert np.array_equal(l2, np.array(lyap))
    assert np.array_equal(k2, np.array(kl))


def csv_writer_bytes(path, weights, lyap, kl):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"g{i}" for i in range(weights.shape[1])] + ["lyapunov", "kl"])
        for t in range(len(weights)):
            writer.writerow(
                [str(t)] + ["%.17g" % v for v in (*weights[t], lyap[t], kl[t])]
            )
    return path.read_bytes()


def test_trajectory_csv_bytes_match_csv_writer(tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    weights = rng.dirichlet(np.ones(7), size=15)
    weights[3] = np.eye(7)[2]  # exact zeros and ones
    lyap = rng.uniform(0, 1, size=15)
    kl = rng.uniform(0, 1, size=15)
    columns = {
        "floats, numpy scalars": (lyap.tolist(), list(kl)),
        "numpy scalars, floats": (list(lyap), kl.tolist()),
        "arrays": (lyap, kl),
    }
    # serial, then forked
    monkeypatch.setattr(lifted_module, "FORKED_WRITE_MIN_ROW_FIELDS", 0)
    for threshold in (sys.maxsize, 0):
        monkeypatch.setattr(lifted_module, "FORKED_WRITE_MIN_FIELDS", threshold)
        for steps in (1, 2, 3, 15):
            for name, (lyap_col, kl_col) in columns.items():
                rows = weights[:steps]
                path = tmp_path / "fast.csv"
                write_trajectory_csv(path, rows, lyap_col[:steps], kl_col[:steps])
                reference = csv_writer_bytes(tmp_path / "ref.csv", rows, lyap_col, kl_col)
                assert path.read_bytes() == reference, (threshold, steps, name)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def logged_reads(log_path):
    lines = log_path.read_text().splitlines()
    return [tuple(int(v) for v in line.split()) for line in lines]


class RowLog(list):
    """A trajectory column that logs "pid row" to ``log_path`` on each read.
    With ``handoff``, a read outside the creating process then waits until
    the creating process has read a row, so that both processes own rows."""

    def __init__(self, values, log_path, handoff):
        super().__init__(values)
        self.log_path, self.handoff, self.parent = log_path, handoff, os.getpid()

    def __getitem__(self, t):
        with open(self.log_path, "a") as log:
            log.write(f"{os.getpid()} {t}\n")
        if self.handoff and os.getpid() != self.parent:
            wait_for(lambda: any(pid == self.parent for pid, _ in logged_reads(self.log_path)))
        return super().__getitem__(t)


TIMINGS = ["at once", "partway", "after the child"]


def wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


@pytest.mark.parametrize(
    "steps, timing",
    [(steps, timing) for timing in TIMINGS for steps in (1, 2, 3, 15)]
    + [(2000, "at once")],  # both processes race for 2000 one-row claims
)
def test_forked_writer_claims_rows_from_both_ends(steps, timing, tmp_path, monkeypatch):
    """One-row claims: however the parent's overlapped work is timed against
    the child, each row is written once, the parent's rows are a prefix, the
    child's a suffix taken from the back, and the bytes are the serial ones.
    Partway, the child holds its first row until the parent has read one."""
    monkeypatch.setattr(lifted_module, "FORKED_WRITE_MIN_FIELDS", 0)
    monkeypatch.setattr(lifted_module, "FORKED_WRITE_MIN_ROW_FIELDS", 0)
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    rng = np.random.default_rng(steps)
    weights = rng.dirichlet(np.ones(5), size=steps)
    lyap, kl = rng.uniform(0, 1, size=steps), rng.uniform(0, 1, size=steps)
    log_path = tmp_path / "rows.log"
    log_path.touch()

    def overlap():
        child = pids[0]
        if timing == "partway":  # the child has formatted its first row
            wait_for(lambda: any(pid == child for pid, _ in logged_reads(log_path)))
        elif timing == "after the child":  # it has claimed every row and left
            wait_for(lambda: os.waitid(os.P_PID, child, os.WEXITED | os.WNOHANG | os.WNOWAIT))

    path = tmp_path / "forked.csv"
    # partway, the child holds its first row until the parent reads row 0
    handoff = timing == "partway" and steps > 1
    write_trajectory_csv(path, weights, lyap, RowLog(kl, log_path, handoff), overlap=overlap)
    assert path.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", weights, lyap, kl)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    owners = logged_reads(log_path)
    assert sorted(t for _, t in owners) == list(range(steps))
    front = [t for pid, t in owners if pid == os.getpid()]
    back = [t for pid, t in owners if pid == pids[0]]
    assert front == list(range(len(front)))
    assert back == list(range(steps - 1, len(front) - 1, -1))
    if timing == "after the child":
        assert front == []
    if handoff:
        assert 0 < len(front) < steps


@pytest.mark.parametrize("order, forks", [(5, 0), (1496, 0), (1497, 1)])
def test_forked_writer_needs_rows_of_its_minimum_width(order, forks, tmp_path, monkeypatch):
    """A file over FORKED_WRITE_MIN_FIELDS forks only if its rows hold at least
    FORKED_WRITE_MIN_ROW_FIELDS fields (1,500: 1,497 weights and 3 more)."""
    monkeypatch.setattr(lifted_module, "FORKED_WRITE_MIN_FIELDS", 0)
    pids = []
    real_fork = os.fork

    def fork():
        pids.append(real_fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", fork)
    rng = np.random.default_rng(order)
    weights = rng.dirichlet(np.ones(order), size=3)
    lyap, kl = rng.uniform(0, 1, size=3), rng.uniform(0, 1, size=3)
    path = tmp_path / "rows.csv"
    write_trajectory_csv(path, weights, lyap, kl)
    assert len(pids) == forks
    assert path.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", weights, lyap, kl)


def test_trajectory_csv_detects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,g0,g1,lyapunov,kl\n0,0.5,0.5,0.0,0.0\n7,0.5,0.5,0.0,0.0\n")
    with pytest.raises(ValueError, match="labeled"):
        read_trajectory_csv(path)


def csv_module_read(path):
    """The csv.reader parse that read_trajectory_csv used before np.loadtxt."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    return values[:, :-2], values[:, -2], values[:, -1]


def test_trajectory_csv_reader_is_bit_equal_to_csv_module(tmp_path):
    rng = np.random.default_rng(21)
    weights = rng.dirichlet(np.ones(9), size=40)
    weights[5] = np.eye(9)[4]  # exact zeros and ones
    weights[6, :3] = [5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53]
    lyap = rng.uniform(0, 1, size=40)
    kl = rng.exponential(size=40) * 1e-300
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, weights, lyap, kl)
    for got, want in zip(read_trajectory_csv(path), csv_module_read(path)):
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


# -- the trajectory.csv formatter ----------------------------------------------


def formatter_fields(values):
    """The fields the numpy formatter writes for ``values``, as one CSV row."""
    row = np.asarray(values, dtype=np.float64).reshape(1, -1)
    text = lifted_module._csv_fields(row, True)
    assert text.endswith(b"\r\n")
    return text[:-2].decode().split(",")


def assert_formats_like_oracle(values, block=1 << 14):
    """Field for field against TRAJECTORY_FLOAT_FORMAT, the formatter's
    fallback and its oracle, ``block`` values per formatter call."""
    values = np.asarray(values, dtype=np.float64).ravel()
    for start in range(0, values.size, block):
        chunk = values[start : start + block].tolist()
        got = formatter_fields(chunk)
        want = [TRAJECTORY_FLOAT_FORMAT % v for v in chunk]
        assert len(got) == len(want)
        wrong = [(v, g, w) for v, g, w in zip(chunk, got, want) if g != w]
        assert not wrong, wrong[:5]


def fallback_share(values, block=1 << 14):
    """Share of ``values`` the formatter leaves to TRAJECTORY_FLOAT_FORMAT."""
    slow = sum(
        lifted_module._field_sources(values[start : start + block])[2].size
        for start in range(0, values.size, block)
    )
    return slow / values.size


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_formatter_matches_oracle_on_any_finite_double(values):
    assert_formats_like_oracle(values)


def test_formatter_edge_values():
    assert formatter_fields([0.0, -0.0]) == ["0", "-0"]
    tiny, huge = lifted_module._EXACT_MIN, lifted_module._EXACT_MAX
    edges = [
        0.0,
        -0.0,
        5e-324,
        2.2250738585072014e-308,  # the smallest normal
        sys.float_info.max,
        1.0,
        0.5,
        1 / 3,
        123456789.0,
        tiny,
        huge,
        np.nextafter(tiny, 0),
        np.nextafter(huge, np.inf),
    ]
    assert_formats_like_oracle(edges + [-x for x in edges] + [math.nan, math.inf, -math.inf])


def test_formatter_on_both_sides_of_each_power_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-20, 18)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert_formats_like_oracle(np.concatenate([values, -values]))


def test_formatter_at_the_fixed_exponent_boundary_and_decade_carries():
    boundary = [1e-5, 1e-4]
    values = boundary + [np.nextafter(x, to) for x in boundary for to in (0.0, 1.0)]
    values += [9.9999999999999995e-5, 9.999999999999999e-6, 0.000123, 1.5e-5]
    assert [TRAJECTORY_FLOAT_FORMAT % x for x in boundary] == ["1.0000000000000001e-05", "0.0001"]
    # doubles just below 10**k whose 17 digits round up into the next decade
    carries = [(k, float(f"1e{k}")) for k in (-176, -175, -174, -79, -73, -70, -14, 98, 129, 153)]
    assert all(Fraction(x) < Fraction(10) ** k for k, x in carries)
    assert_formats_like_oracle(values + [x for _, x in carries] + [-x for x in values])
    assert formatter_fields([x for _, x in carries]) == [f"1e{k:+03d}" for k, _ in carries]


def test_formatter_on_dyadic_exact_ties():
    rng = np.random.default_rng(3)
    whole = rng.integers(10**15, 2**51, 300)
    # sixteen digits then .25 or .75: an exact tie at 17 significant digits
    ties = np.concatenate([whole + 0.25, whole + 0.75, 2.0 ** -np.arange(1, 80)])
    assert all(Fraction(x).denominator == 4 for x in ties[: 2 * whole.size])
    assert_formats_like_oracle(np.concatenate([ties, -ties]))


@pytest.mark.parametrize(
    "draw, share",
    [("uniform", 0.0), ("log-uniform", 0.02), ("dyadic", 0.05)],
)
def test_formatter_on_a_million_draws(draw, share):
    """Uniform, log-uniform and dyadic draws, both signs; the fast path
    settles all but a small share (the exact ties among them)."""
    rng = np.random.default_rng(27)
    n = 10**6
    if draw == "uniform":
        values = rng.uniform(0.0, 1.0, n)
    elif draw == "log-uniform":
        values = 10.0 ** rng.uniform(-30.0, 20.0, n)
    else:
        values = rng.integers(1, 2**20, n) / 2.0 ** rng.integers(0, 40, n)
    values[1::2] *= -1
    assert_formats_like_oracle(values)
    assert fallback_share(values) <= share


def test_formatter_separators_by_row():
    block = np.array([[0.0, 0.5, -2.0], [1.0, 2.0**-10, 3e20]])
    assert lifted_module._csv_fields(block, True) == b"0,0.5,-2\r\n1,0.0009765625,3e+20\r\n"
    assert lifted_module._csv_fields(block, False) == b"0,0.5,-2,1,0.0009765625,3e+20,"


def test_formatter_calls_no_blas(monkeypatch):
    """The forked writer child formats rows; it must not enter a BLAS whose
    threads the fork did not copy."""

    def boom(*args, **kwargs):
        raise AssertionError("BLAS call")

    for name in ("dot", "matmul", "einsum", "inner", "vdot", "tensordot"):
        monkeypatch.setattr(np, name, boom)
    lifted_module._format_tables.cache_clear()
    assert_formats_like_oracle(np.random.default_rng(1).uniform(-1, 1, 5000))


def test_importing_groupsym_builds_no_format_table():
    import groupsym

    src = os.path.dirname(os.path.dirname(os.path.abspath(groupsym.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = (
        "import groupsym, groupsym.cli, groupsym.harness, groupsym.lifted as lifted;"
        "print(lifted._format_tables.cache_info().currsize)"
    )
    probe = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "0"


@pytest.mark.parametrize("fields", [5, 24, 100_000])
@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
def test_trajectory_csv_blocks_and_pieces_keep_the_bytes(fields, forked, tmp_path, monkeypatch):
    """Formatter calls of 5 fields split each row into pieces, of 24 fields
    take two rows, and of 100k the whole file; the bytes stay csv.writer's."""
    monkeypatch.setattr(lifted_module, "BLOCK_BYTES", fields * lifted_module._FIELD_BYTES)
    monkeypatch.setattr(lifted_module, "FORKED_WRITE_MIN_FIELDS", 0 if forked else sys.maxsize)
    monkeypatch.setattr(lifted_module, "FORKED_WRITE_MIN_ROW_FIELDS", 0)
    rng = np.random.default_rng(fields)
    weights = rng.dirichlet(np.ones(7), size=9)
    weights[2, :4] = [0.0, -0.0, 5e-324, 1234567890123456.25]  # zeros, a fallback, a tie
    weights[3, :3] = [math.nan, math.inf, 1e200]
    lyap, kl = rng.uniform(0, 1, size=9), rng.exponential(size=9) * 1e-250
    path = tmp_path / "blocks.csv"
    write_trajectory_csv(path, weights, lyap, kl)
    assert path.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", weights, lyap, kl)


@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
def test_trajectory_csv_write_memory_stays_near_one_block(forked, tmp_path, monkeypatch):
    """250k fields, a 5.6 MB file: the write's peak beyond its inputs stays
    within a small multiple of BLOCK_BYTES, tables included."""
    monkeypatch.setattr(lifted_module, "FORKED_WRITE_MIN_FIELDS", 0 if forked else sys.maxsize)
    monkeypatch.setattr(lifted_module, "FORKED_WRITE_MIN_ROW_FIELDS", 0)
    lifted_module._format_tables.cache_clear()
    rng = np.random.default_rng(4)
    weights = rng.dirichlet(np.ones(2497), size=100)
    lyap, kl = list(rng.uniform(size=100)), list(rng.uniform(size=100))
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_trajectory_csv(path, weights, lyap, kl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert os.path.getsize(path) > 5 * lifted_module.BLOCK_BYTES
    assert peak < 2 * lifted_module.BLOCK_BYTES


CSV_HEADER = "step,g0,g1,lyapunov,kl\r\n"


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "header"),
        (CSV_HEADER, "no rows"),
        (CSV_HEADER + "0,0.5,0.5,0.0\r\n1,0.5,0.5,0.0\r\n", "4 fields, expected 5"),
        (CSV_HEADER + "0,0.5,0.5,0.0,0.0,0.0\r\n", "6 fields, expected 5"),
        (CSV_HEADER + "0,0.5,0.5,0.0,0.0\r\n1,0.5,0.5,0.0\r\n", None),  # ragged
        (CSV_HEADER + "0,0.5,half,0.0,0.0\r\n", None),  # not a number
        (CSV_HEADER + "1,0.5,0.5,0.0,0.0\r\n", "row 0 is labeled step 1"),
        (CSV_HEADER + "0,0.5,0.5,0.0,0.0\r\n1,nan,0.5,0.0,0.0\r\n", "row 1 has a non-finite"),
        (CSV_HEADER + "0,0.5,0.5,0.0,inf\r\n", "row 0 has a non-finite value"),
        ("step,lyapunov,kl\r\n0,0.0,0.0\r\n", "header"),  # no weight columns
    ],
)
def test_trajectory_csv_reader_rejects_malformed_files(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=match):
        read_trajectory_csv(path)


# -- the forked trajectory.csv reader -------------------------------------------


def read_path(monkeypatch, forked):
    """Force the serial or the forked trajectory.csv reader; return the fork calls."""
    monkeypatch.setattr(lifted_module, "FORKED_READ_MIN_BYTES", 0 if forked else sys.maxsize)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def loadtxt_rows(path):
    """The serial parse of a trajectory CSV's body, as the reader always made it."""
    with open(path) as fh:
        fh.readline()
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)


def assert_reads_like_loadtxt(path):
    want = loadtxt_rows(path)
    for got, cols in zip(read_trajectory_csv(path), (want[:, 1:-2], want[:, -2], want[:, -1])):
        assert got.shape == cols.shape
        assert np.array_equal(np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(cols).view(np.int64))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_reader_is_bit_equal_on_every_golden_csv(tmp_path, monkeypatch):
    from test_harness import GOLDEN_RUNS, golden_config

    from groupsym.harness import execute

    forks = read_path(monkeypatch, True)
    for name in sorted(GOLDEN_RUNS):
        art = execute(golden_config(name), out_dir=str(tmp_path / name))
        forks.clear()
        assert_reads_like_loadtxt(os.path.join(art.directory, "trajectory.csv"))
        assert len(forks) == 1, name
        assert_no_child_left()


def test_forked_reader_finds_the_newline_past_rows_wider_than_a_mebibyte(tmp_path, monkeypatch):
    """The split scans forward from the body's midpoint, inside the middle
    row, as far as that row's end, hundreds of kilobytes away."""
    rng = np.random.default_rng(29)
    weights = rng.dirichlet(np.ones(60_000), size=3)
    path = tmp_path / "wide.csv"
    write_trajectory_csv(path, weights, rng.uniform(size=3), rng.uniform(size=3))
    assert min(len(line) for line in path.read_bytes().splitlines()[1:]) > 1 << 20
    forks = read_path(monkeypatch, True)
    assert_reads_like_loadtxt(path)
    assert len(forks) == 1
    assert_no_child_left()


def forged_csv(tmp_path, row, change):
    """A 12-row trajectory CSV whose ``row`` is rewritten by ``change``."""
    rng = np.random.default_rng(row)
    path = tmp_path / "forged.csv"
    write_trajectory_csv(path, rng.dirichlet(np.ones(6), size=12), rng.uniform(size=12), rng.uniform(size=12))
    lines = path.read_bytes().split(b"\r\n")
    lines[1 + row] = change(lines[1 + row])
    path.write_bytes(b"\r\n".join(lines))
    return path


def first_back_row(path):
    """The first row after the newline the forked reader splits at."""
    text = path.read_bytes()
    body = text.index(b"\n") + 1
    mid = text.index(b"\n", body + (len(text) - body) // 2) + 1
    return text[body:mid].count(b"\n")


def third_field(value):
    """A forgery that puts ``value`` in a line's third field."""
    return lambda line: b",".join(line.split(b",")[:2] + [value] + line.split(b",")[3:])


FORGERIES = {
    "bad field": third_field(b"half"),
    "short row": lambda line: line.rsplit(b",", 1)[0],
    "nan": third_field(b"nan"),
}


@pytest.mark.parametrize(
    "forgery, row",
    [("bad field", 10), ("short row", 11), ("short row", 7), ("nan", 9), ("bad field", 1), ("nan", 2)],
)
def test_forked_reader_raises_the_serial_readers_error(forgery, row, tmp_path, monkeypatch):
    """Rows 7 to 11 lie in the child's half, rows 1 and 2 in this process's."""
    path = forged_csv(tmp_path, row, FORGERIES[forgery])
    assert (row >= first_back_row(path)) == (row >= 7)
    read_path(monkeypatch, False)
    with pytest.raises(ValueError) as serial:
        read_trajectory_csv(path)
    forks = read_path(monkeypatch, True)
    with pytest.raises(ValueError) as forked:
        read_trajectory_csv(path)
    assert len(forks) == 1
    assert str(forked.value) == str(serial.value)
    assert_no_child_left()


@pytest.mark.parametrize("how", ["raises", "is killed"])
def test_forked_reader_reads_serially_after_its_child_fails(how, tmp_path, monkeypatch):
    def failing_child(*args):
        if how == "raises":
            raise OSError("the child cannot parse")
        os.kill(os.getpid(), signal.SIGKILL)

    path = forged_csv(tmp_path, 0, lambda line: line)
    forks = read_path(monkeypatch, True)
    monkeypatch.setattr(lifted_module, "_send_rows", failing_child)
    assert_reads_like_loadtxt(path)
    assert len(forks) == 1
    assert_no_child_left()


def test_forked_reader_keeps_no_child_when_this_half_fails(tmp_path, monkeypatch):
    """A parse error in this process's half kills the child, which may still
    be parsing, before the serial reader runs."""
    path = forged_csv(tmp_path, 0, FORGERIES["bad field"])
    forks = read_path(monkeypatch, True)
    with pytest.raises(ValueError, match="half"):
        read_trajectory_csv(path)
    assert len(forks) == 1
    assert_no_child_left()


def test_reader_without_fork_reads_serially(tmp_path, monkeypatch):
    path = forged_csv(tmp_path, 0, lambda line: line)
    monkeypatch.setattr(lifted_module, "FORKED_READ_MIN_BYTES", 0)
    monkeypatch.delattr(os, "fork")
    calls = []
    monkeypatch.setattr(lifted_module, "_load_rows_forked", lambda *args: calls.append(args))
    assert_reads_like_loadtxt(path)
    assert calls == []


def test_forked_reader_starts_at_its_minimum_size(tmp_path, monkeypatch):
    path = forged_csv(tmp_path, 0, lambda line: line)
    forks = read_path(monkeypatch, True)
    for threshold, forked in [(os.path.getsize(path) + 1, 0), (os.path.getsize(path), 1)]:
        monkeypatch.setattr(lifted_module, "FORKED_READ_MIN_BYTES", threshold)
        assert_reads_like_loadtxt(path)
        assert len(forks) == forked
    assert_no_child_left()


@pytest.mark.parametrize("body", [b"0,0.5,0.5,0,0\r\n", b"0,0.5,0.5,0,0\r\n\r\n\r\n"])
def test_forked_reader_reads_serially_where_no_split_leaves_two_halves(body, tmp_path, monkeypatch):
    """One row, or one row and blank lines: the back half is empty or holds no
    rows, so the rows are the serial parse's."""
    path = tmp_path / "short.csv"
    path.write_bytes(b"step,g0,g1,lyapunov,kl\r\n" + body)
    read_path(monkeypatch, True)
    assert_reads_like_loadtxt(path)
    assert_no_child_left()


def test_forked_reader_calls_no_blas(tmp_path, monkeypatch):
    """Both halves parse with np.loadtxt alone: the child must not enter a
    BLAS whose threads the fork did not copy."""

    def boom(*args, **kwargs):
        raise AssertionError("BLAS call")

    path = forged_csv(tmp_path, 0, lambda line: line)
    for name in ("dot", "matmul", "einsum", "inner", "vdot", "tensordot"):
        monkeypatch.setattr(np, name, boom)
    header = path.read_text().splitlines()[0]
    rows = lifted_module._load_rows_forked(path, header, "utf-8")
    assert np.array_equal(rows.view(np.int64), loadtxt_rows(path).view(np.int64))
    assert_no_child_left()
