"""Tests for the end-to-end symmetrization experiments."""

from __future__ import annotations

import itertools
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import groupsym.applications as applications_module
import groupsym.lifted as lifted_module
from groupsym.actions import (
    LinearAction,
    axis_permutation_action,
    conjugation_action,
    dft_action,
    pauli_matrices,
    pauli_quotient_group,
    permutation_action,
    regular_action,
    step,
    subsystem_permutation_unitaries,
    symmetrizer,
)
from groupsym.applications import (
    ExperimentResult,
    birkhoff_decomposition,
    birkhoff_weights,
    edge_transpositions,
    run_dft,
    run_dynamical_decoupling,
    run_gossip_consensus,
    run_probability_symmetrization,
    run_quantum_gossip,
    run_random_state_generation,
    run_symmetrization,
    spectral_comparison,
    star_consensus_example,
)
from groupsym.config import DEFAULT_TOLERANCES, parse_config
from groupsym.harness import HarnessError, certify_schedule, execute
from groupsym.groups import cyclic_group, symmetric_group, transposition_index
from groupsym.lifted import ConvexWeights
from groupsym.schedules import (
    CyclicSchedule,
    ExplicitSchedule,
    RandomGossipSchedule,
    RandomSubsetSchedule,
)


def complete_edges(m):
    return list(itertools.combinations(range(m), 2))


def s3_cycle_schedule(alpha=0.5):
    g3 = symmetric_group(3)
    trs = [
        transposition_index(g3, 0, 1),
        transposition_index(g3, 1, 2),
        transposition_index(g3, 0, 2),
    ]
    return CyclicSchedule(g3, trs, alpha)


# -- engine ---------------------------------------------------------------------


def test_engine_series_lengths_and_metadata():
    g3 = symmetric_group(3)
    act = permutation_action(3, 2, g3)
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal(6)
    result = run_symmetrization(act, x0, s3_cycle_schedule(), 30, early_stop=False)
    assert isinstance(result, ExperimentResult)
    assert result.steps_run == 30
    for series in (result.residuals, result.lyapunov, result.kl):
        assert len(series) == 31
    assert len(result.weights_trajectory) == 31
    assert "runtime_seconds" in result.metadata
    assert result.metadata["schedule"]["kind"] == "cyclic"


def test_engine_makes_no_weight_objects_and_no_convolve_calls(monkeypatch):
    signal = s3_cycle_schedule().realize(40)  # inline: built before counting starts
    calls = []
    init = ConvexWeights.__init__

    def counting_init(self, *args, **kwargs):
        calls.append("ConvexWeights")
        init(self, *args, **kwargs)

    def counting_convolve(s, p):
        calls.append("convolve")
        return lifted_module.convolve(s, p)

    monkeypatch.setattr(ConvexWeights, "__init__", counting_init)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("groupsym") and hasattr(module, "convolve"):
            monkeypatch.setattr(module, "convolve", counting_convolve)
    act = permutation_action(3, 2, symmetric_group(3))
    x0 = np.random.default_rng(2).standard_normal(6)
    result = run_symmetrization(act, x0, signal, 40, early_stop=False)
    certify_schedule(result.signal, 40, DEFAULT_TOLERANCES)
    assert result.steps_run == 40
    assert calls == []


def test_engine_builds_no_weight_objects_from_a_schedule(monkeypatch):
    built = []
    init = ConvexWeights.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    g3 = symmetric_group(3)
    trs = [transposition_index(g3, j, k) for j, k in complete_edges(3)]
    schedule = RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=2)
    monkeypatch.setattr(ConvexWeights, "__init__", counting_init)
    act = permutation_action(3, 2, g3)
    x0 = np.random.default_rng(2).standard_normal(6)
    result = run_symmetrization(act, x0, schedule, 40, early_stop=False)
    certify_schedule(result.signal, 40, DEFAULT_TOLERANCES)
    assert result.steps_run == 40
    assert built == []


@pytest.mark.parametrize("chunk", [1, 2, 3, lifted_module.SIGNAL_CHUNK])
def test_early_stop_draws_at_most_one_chunk_past_the_run(chunk, monkeypatch):
    monkeypatch.setattr(lifted_module, "SIGNAL_CHUNK", chunk)
    drawn = []
    rows = RandomGossipSchedule._rows

    def counting_rows(self, steps):
        for row in rows(self, steps):
            drawn.append(1)
            yield row

    monkeypatch.setattr(RandomGossipSchedule, "_rows", counting_rows)
    g3 = symmetric_group(3)
    trs = [transposition_index(g3, j, k) for j, k in complete_edges(3)]
    schedule = RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=5)
    x0 = np.random.default_rng(5).standard_normal(3)
    result = run_gossip_consensus(3, 1, complete_edges(3), schedule, x0, 5000, threshold=1e-8)
    assert result.converged and 0 < result.steps_run < 5000
    assert result.steps_run <= sum(drawn) <= result.steps_run + chunk


def test_weights_trajectory_is_one_read_only_array():
    g3 = symmetric_group(3)
    x0 = np.random.default_rng(4).standard_normal(3)
    swaps = [transposition_index(g3, j, k) for j, k in complete_edges(3)]
    schedule = RandomGossipSchedule(g3, swaps, (0.3, 0.7), 4)
    early = run_gossip_consensus(3, 1, complete_edges(3), schedule, x0, 5000)
    assert early.converged and early.steps_run < 5000
    sampled = run_random_state_generation(
        regular_action(g3), np.arange(6.0), schedule, 12, trials=100, seed=3
    )
    for result in (early, sampled):
        traj = result.weights_trajectory
        assert isinstance(traj, np.ndarray) and traj.dtype == np.float64
        assert traj.shape == (result.steps_run + 1, g3.order)
        with pytest.raises(ValueError, match="read-only"):
            traj[0, 0] = 0.5


def test_engine_zero_steps():
    g3 = symmetric_group(3)
    act = permutation_action(3, 1, g3)
    result = run_symmetrization(act, np.ones(3), s3_cycle_schedule(), 0)
    assert result.steps_run == 0
    assert len(result.residuals) == 1
    assert result.converged  # consensus start has zero residual
    with pytest.raises(ValueError, match=">= 0"):
        run_symmetrization(act, np.ones(3), s3_cycle_schedule(), -1)


def test_engine_early_stop_truncates():
    g3 = symmetric_group(3)
    act = permutation_action(3, 1, g3)
    result = run_symmetrization(
        act, np.array([0.0, 3.0, 6.0]), s3_cycle_schedule(), 500, threshold=1e-6
    )
    assert result.converged
    assert result.steps_run < 500
    assert len(result.residuals) == result.steps_run + 1
    assert result.residuals[-1] <= 1e-6
    assert result.residuals[-2] > 1e-6


def test_engine_lift_reconstruction_and_lyapunov():
    g3 = symmetric_group(3)
    act = permutation_action(3, 2, g3)
    rng = np.random.default_rng(2)
    result = run_symmetrization(
        act, rng.standard_normal(6), s3_cycle_schedule(), 50, early_stop=False
    )
    assert result.lift_direct_gap < 1e-9
    diffs = np.diff(result.lyapunov)
    assert diffs.max() <= 1e-12


def test_engine_final_state_matches_orbit_average():
    g3 = symmetric_group(3)
    act = permutation_action(3, 2, g3)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(6)
    result = run_symmetrization(act, x0, s3_cycle_schedule(), 400, threshold=1e-10)
    # independent oracle: average the orbit by direct summation
    oracle = sum(act.apply(g, x0) for g in range(6)) / 6.0
    assert result.converged
    assert np.abs(result.final_state - oracle).max() < 1e-8


def test_engine_certificate_attached():
    g3 = symmetric_group(3)
    act = permutation_action(3, 1, g3)
    result = run_symmetrization(act, np.array([1.0, 2.0, 3.0]), s3_cycle_schedule(), 30)
    certificate = certify_schedule(result.signal, 30, DEFAULT_TOLERANCES)
    assert certificate is not None
    assert certificate.satisfied
    assert certificate.T == 3
    assert certificate.delta == pytest.approx(0.125)


@pytest.mark.parametrize("keyword", [{"certify": True}, {"delta_floor": 1e-6}])
def test_engine_does_not_certify(keyword):
    act = permutation_action(3, 1, symmetric_group(3))
    with pytest.raises(TypeError, match=next(iter(keyword))):
        run_symmetrization(act, np.array([1.0, 2.0, 3.0]), s3_cycle_schedule(), 30, **keyword)


def test_engine_rejects_short_inline_signal():
    g3 = symmetric_group(3)
    act = permutation_action(3, 1, g3)
    signal = s3_cycle_schedule().realize(3)
    with pytest.raises(ValueError, match="supplies 3 steps"):
        run_symmetrization(act, np.ones(3), signal, 10)


def _orbit_average_case(protocol, steps=300):
    """(action, x0, result) for one engine runner on a small random input."""
    rng = np.random.default_rng(11)
    if protocol == "dft":
        N = 8
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        sched = RandomGossipSchedule(cyclic_group(N), list(range(1, N)), (0.3, 0.7), seed=5)
        return dft_action(N), np.outer(x, np.ones(N)), run_dft(N, x, sched, steps)
    m = 3
    group = symmetric_group(m)
    sched = RandomGossipSchedule(
        group, edge_transpositions(group, m, complete_edges(m)), (0.3, 0.7), seed=5
    )
    if protocol == "gossip":
        x0 = rng.standard_normal(m * 2)
        result = run_gossip_consensus(m, 2, complete_edges(m), sched, x0, steps)
        return permutation_action(m, 2, group), x0, result
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    X0 = (a + a.conj().T) / 2.0
    result = run_quantum_gossip(m, 2, complete_edges(m), sched, X0, steps)
    return conjugation_action(group, subsystem_permutation_unitaries(group, 2)), X0, result


@pytest.mark.parametrize("protocol", ["gossip", "dft", "quantum-gossip"])
def test_runners_take_the_orbit_average_from_the_engine(protocol, monkeypatch):
    calls = []

    def counting_symmetrizer(action, x):
        calls.append(x)
        return symmetrizer(action, x)

    monkeypatch.setattr(applications_module, "symmetrizer", counting_symmetrizer)
    action, x0, result = _orbit_average_case(protocol)
    # quantum gossip's average-spectrum monitor averages the state at every
    # recorded step; no runner walks the orbit of x0 for its targets
    monitor_calls = result.steps_run + 1 if protocol == "quantum-gossip" else 0
    assert len(calls) == monitor_calls

    average = symmetrizer(action, x0)
    assert np.abs(result.orbit_average - average).max() < 1e-13
    extras = result.extras
    if protocol == "dft":
        assert np.abs(extras["x_hat_exact"] - average).max() < 1e-13
        chi = np.fft.fft(x0[:, 0]) / 8
        assert abs(extras["exact_first_row_gap"] - np.abs(average[0] - chi).max()) < 1e-13
        return
    assert abs(extras["target_gap"] - np.abs(result.final_state - average).max()) < 1e-13
    if protocol == "gossip":
        assert np.abs(extras["barycenter"] - average.reshape(3, 2)[0]).max() < 1e-13
    else:
        spectrum = np.sort(np.linalg.eigvalsh(average))
        assert np.abs(extras["target_spectrum"] - spectrum).max() < 1e-13


# -- gossip consensus --------------------------------------------------------------


def test_gossip_reaches_barycenter():
    m, n = 3, 2
    g3 = symmetric_group(3)
    support = edge_transpositions(g3, m, complete_edges(m))
    sched = RandomGossipSchedule(g3, support, (0.3, 0.7), seed=77)
    x0 = np.array([1.0, 0.0, 0.0, 1.0, 4.0, -2.0])
    result = run_gossip_consensus(m, n, complete_edges(m), sched, x0, 500)
    assert result.converged
    bary = np.array([(1.0 + 0.0 + 4.0) / 3.0, (0.0 + 1.0 - 2.0) / 3.0])
    assert np.abs(result.extras["barycenter"] - bary).max() < 1e-12
    assert np.abs(result.final_state.reshape(3, 2) - bary).max() < 1e-7
    assert result.conserved_drift < 1e-10
    assert result.extras["target_gap"] < 1e-7


def test_gossip_disconnected_node_never_moves():
    m, n = 3, 1
    g3 = symmetric_group(3)
    sched = CyclicSchedule(g3, [transposition_index(g3, 0, 1)], 0.5)
    x0 = np.array([0.0, 2.0, 9.0])
    result = run_gossip_consensus(
        m, n, [(0, 1)], sched, x0, 100, early_stop=False
    )
    assert result.final_state[2] == 9.0
    assert not result.converged
    assert abs(result.final_state[0] - 1.0) < 1e-12
    assert abs(result.final_state[1] - 1.0) < 1e-12


def test_gossip_consensus_start_is_fixed():
    result = run_gossip_consensus(
        3, 1, complete_edges(3), s3_cycle_schedule(), np.full(3, 2.5), 10,
        early_stop=False,
    )
    assert np.abs(result.residuals).max() < 1e-14
    assert np.abs(result.final_state - 2.5).max() < 1e-14


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_initial_state_is_refused(value):
    # a NaN would make every residual 0.0 through max(worst, nan) and
    # report convergence after one step
    x0 = np.array([value, 1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        run_gossip_consensus(3, 1, complete_edges(3), s3_cycle_schedule(), x0, 10)
    z3 = cyclic_group(3)
    schedule = CyclicSchedule(z3, [1], 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        run_random_state_generation(regular_action(z3), x0, schedule, 2, 10, seed=1)


class NaNOnApplyCall(LinearAction):
    """S3 acting by permutation on R^3, whose ``apply`` returns NaN on one call."""

    def __init__(self, bad_call):
        base = permutation_action(3, 1)
        super().__init__(base.group, base.space, base._apply, adjoint_map=base.adjoint_map)
        self.calls = 0
        self.bad_call = bad_call

    def apply(self, g, x, *, validate=True):
        self.calls += 1
        image = super().apply(g, x, validate=validate)
        return np.full_like(image, np.nan) if self.calls == self.bad_call else image


def test_a_nan_produced_mid_run_raises_naming_its_step():
    # every step of the cycle schedule applies two maps, so call 5 is step 3's
    x0 = np.array([0.0, 3.0, 6.0])
    with pytest.raises(ValueError, match="step 3: non-finite fixed-point residual"):
        run_symmetrization(NaNOnApplyCall(5), x0, s3_cycle_schedule(), 10)
    # without the residual, the lift gap catches it
    with pytest.raises(ValueError, match="step 3: non-finite lift gap"):
        run_symmetrization(
            NaNOnApplyCall(5), x0, s3_cycle_schedule(), 10,
            residual_fn=lambda x: 0.0, early_stop=False,
        )
    result = run_symmetrization(NaNOnApplyCall(0), x0, s3_cycle_schedule(), 10)
    assert np.isfinite(result.final_state).all()


def test_a_non_finite_monitor_value_raises_naming_its_step():
    values = iter([1.0, 1.0, np.inf])
    with pytest.raises(ValueError, match="step 2: monitor 'flaky' has a non-finite value"):
        run_symmetrization(
            permutation_action(3, 1),
            np.array([0.0, 3.0, 6.0]),
            s3_cycle_schedule(),
            10,
            monitors={"flaky": lambda x: next(values)},
        )
    with pytest.raises(ValueError, match="step 0: non-finite fixed-point residual"):
        run_symmetrization(
            permutation_action(3, 1), np.zeros(3), s3_cycle_schedule(), 10,
            residual_fn=lambda x: np.nan,
        )


def test_engine_leaves_x0_unchanged():
    act = dft_action(8)
    rng = np.random.default_rng(38)
    x0 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert x0.flags.c_contiguous and act.space.validate(x0) is x0  # no copy on entry
    before = x0.copy()
    schedule = RandomGossipSchedule(act.group, range(1, 8), (0.3, 0.7), seed=4)
    result = run_symmetrization(act, x0, schedule, 20, early_stop=False)
    assert result.steps_run == 20
    assert x0.tobytes() == before.tobytes()
    assert not np.shares_memory(result.final_state, x0)


def test_a_monitor_returning_a_view_keeps_its_series():
    act = permutation_action(3, 2)
    x0 = np.arange(6.0)
    monitors = {"view": lambda x: x[:2], "copy": lambda x: x[:2].copy()}
    result = run_symmetrization(
        act, x0, s3_cycle_schedule(), 8, early_stop=False, monitors=monitors
    )
    series = result.extras["conserved_series"]
    assert np.array_equal(series["view"], series["copy"])
    assert np.array_equal(series["view"][0], x0[:2])
    assert len({row.tobytes() for row in series["view"]}) > 2  # the state moved


def test_gossip_edge_validation():
    sched = s3_cycle_schedule()
    with pytest.raises(ValueError, match="outside 0..2"):
        run_gossip_consensus(3, 1, [(0, 3)], sched, np.zeros(3), 1)
    with pytest.raises(ValueError, match="distinct"):
        run_gossip_consensus(3, 1, [(1, 1)], sched, np.zeros(3), 1)


def test_gossip_schedule_support_must_match_edges():
    g3 = symmetric_group(3)
    sched = s3_cycle_schedule()  # uses all three transpositions
    with pytest.raises(ValueError, match="outside the declared edge set"):
        run_gossip_consensus(3, 1, [(0, 1)], sched, np.zeros(3), 1)


# -- spectral comparison --------------------------------------------------------------


def test_spectral_numbers_at_alpha_045():
    A, s, _ = star_consensus_example(0.45)
    cmp = spectral_comparison(A, s)
    assert cmp.sigma_a == pytest.approx(0.55, abs=1e-10)
    assert cmp.sigma_m == pytest.approx(0.80, abs=1e-10)
    assert not cmp.degenerate_a
    assert not cmp.degenerate_m


def test_spectral_crossover_at_alpha_04():
    A, s, _ = star_consensus_example(0.4)
    cmp = spectral_comparison(A, s)
    assert cmp.sigma_a == pytest.approx(0.6, abs=1e-10)
    assert cmp.sigma_m == pytest.approx(0.6, abs=1e-10)
    for alpha in (0.2, 0.3, 0.4):
        A, s, _ = star_consensus_example(alpha)
        cmp = spectral_comparison(A, s)
        assert cmp.sigma_m <= cmp.sigma_a + 1e-12
    for alpha in (0.42, 0.45, 0.5):
        A, s, _ = star_consensus_example(alpha)
        cmp = spectral_comparison(A, s)
        assert cmp.sigma_m > cmp.sigma_a


def test_spectral_closed_forms_across_alpha():
    for alpha in np.linspace(0.05, 0.5, 10):
        A, s, _ = star_consensus_example(alpha)
        cmp = spectral_comparison(A, s)
        assert cmp.sigma_a == pytest.approx(1.0 - alpha, abs=1e-10)
        assert cmp.sigma_m == pytest.approx(
            max(abs(1.0 - 4.0 * alpha), 1.0 - alpha), abs=1e-10
        )


def test_spectral_degenerate_identity():
    g3 = symmetric_group(3)
    cmp = spectral_comparison(np.eye(3), ConvexWeights.point_mass(g3))
    assert cmp.degenerate_a and cmp.degenerate_m
    assert cmp.sigma_a == 1.0 and cmp.sigma_m == 1.0


def test_star_example_signal_is_the_lift_of_A():
    alpha = 0.45
    A, s, group = star_consensus_example(alpha)
    expected = np.array([1.0 - 2 * alpha, 0.0, alpha, 0.0, 0.0, alpha])
    assert np.abs(s.weights - expected).max() < 1e-15
    act = permutation_action(3, 1, group)
    stacked = sum(s.weights[g] * act.matrix(g) for g in range(6))
    assert np.abs(stacked - A).max() < 1e-12


def test_spectral_input_validation():
    g3 = symmetric_group(3)
    with pytest.raises(ValueError, match="square"):
        spectral_comparison(np.ones((2, 3)), ConvexWeights.uniform(g3))
    with pytest.raises(ValueError, match="ConvexWeights or a Schedule"):
        spectral_comparison(np.eye(3), np.ones(6) / 6)
    with pytest.raises(ValueError, match="alpha"):
        star_consensus_example(0.6)


# -- probability symmetrization --------------------------------------------------------


def test_prob_sym_single_swap_splits_mass():
    g2 = symmetric_group(2)
    sched = CyclicSchedule(g2, [1], 0.5)
    joint0 = np.zeros((2, 2))
    joint0[0, 1] = 1.0
    result = run_probability_symmetrization(
        2, 2, [(0, 1)], sched, joint0, 1, early_stop=False
    )
    expected = np.zeros((2, 2))
    expected[0, 1] = 0.5
    expected[1, 0] = 0.5
    assert np.abs(result.final_state - expected).max() < 1e-15
    assert result.conserved_drift < 1e-12


def test_prob_sym_product_marginal_unchanged():
    marginal = np.array([0.3, 0.7])
    joint0 = np.einsum("i,j,k->ijk", marginal, marginal, marginal)
    result = run_probability_symmetrization(
        3, 2, complete_edges(3), s3_cycle_schedule(), joint0, 20, early_stop=False
    )
    assert np.abs(result.residuals).max() < 1e-12
    assert np.abs(result.final_state - joint0).max() < 1e-12


def test_prob_sym_limit_matches_permutation_average_oracle():
    rng = np.random.default_rng(5)
    raw = rng.random((2, 2, 2))
    joint0 = raw / raw.sum()
    result = run_probability_symmetrization(
        3, 2, complete_edges(3), s3_cycle_schedule(), joint0, 400, threshold=1e-10
    )
    # independent oracle: average all six axis rearrangements directly
    oracle = np.zeros_like(joint0)
    for axes in itertools.permutations(range(3)):
        oracle += np.transpose(joint0, axes)
    oracle /= 6.0
    assert result.converged
    assert np.abs(result.final_state - oracle).max() < 1e-8
    assert abs(result.final_state.sum() - 1.0) < 1e-12


def test_prob_sym_validation():
    sched = s3_cycle_schedule()
    good = np.full((2, 2, 2), 1.0 / 8.0)
    with pytest.raises(ValueError, match="equal"):
        run_probability_symmetrization(3, [2, 2, 3], complete_edges(3), sched, good, 1)
    with pytest.raises(ValueError, match="negative"):
        bad = good.copy()
        bad[0, 0, 0] = -0.2
        bad[1, 1, 1] += 0.2
        run_probability_symmetrization(3, 2, complete_edges(3), sched, bad, 1)
    with pytest.raises(ValueError, match="sums to"):
        run_probability_symmetrization(
            3, 2, complete_edges(3), sched, good * 2.0, 1
        )
    with pytest.raises(ValueError, match="shape"):
        run_probability_symmetrization(
            3, 2, complete_edges(3), sched, np.full((2, 2), 0.25), 1
        )
    with pytest.raises(ValueError, match="outcome size"):
        run_probability_symmetrization(
            2, 9, [(0, 1)], CyclicSchedule(symmetric_group(2), [1], 0.5),
            np.full((9, 9), 1.0 / 81.0), 1
        )
    with pytest.raises(ValueError, match="m="):
        run_probability_symmetrization(
            5, 2, complete_edges(5),
            CyclicSchedule(symmetric_group(5), [1], 0.5),
            np.full((2,) * 5, 1.0 / 32.0), 1
        )


# -- quantum gossip ----------------------------------------------------------------------


def test_quantum_one_swap_step_oracle():
    I, X, Y, Z = pauli_matrices()
    X0 = np.kron(Z, I)
    g2 = symmetric_group(2)
    sched = CyclicSchedule(g2, [1], 0.5)
    result = run_quantum_gossip(2, 2, [(0, 1)], sched, X0, 1, early_stop=False)
    # explicit 4x4 swap conjugation oracle
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        dtype=np.complex128,
    )
    oracle = 0.5 * X0 + 0.5 * (swap @ X0 @ swap.conj().T)
    assert np.abs(result.final_state - oracle).max() < 1e-14
    assert np.abs(oracle - 0.5 * (np.kron(Z, I) + np.kron(I, Z))).max() < 1e-14


def test_quantum_identity_fixed():
    result = run_quantum_gossip(
        2, 2, [(0, 1)], CyclicSchedule(symmetric_group(2), [1], 0.5),
        np.eye(4, dtype=np.complex128), 5, early_stop=False,
    )
    assert np.abs(result.residuals).max() < 1e-12
    assert np.abs(result.final_state - np.eye(4)).max() < 1e-12


def test_quantum_three_qubit_limit_matches_spec_form_average():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    X0 = A + A.conj().T
    g3 = symmetric_group(3)
    support = edge_transpositions(g3, 3, complete_edges(3))
    sched = RandomGossipSchedule(g3, support, (0.3, 0.7), seed=13)
    result = run_quantum_gossip(3, 2, complete_edges(3), sched, X0, 600)
    assert result.converged
    # oracle written as the adjoint-side average; same set of terms
    U = subsystem_permutation_unitaries(g3, 2)
    oracle = sum(U[g].conj().T @ X0 @ U[g] for g in range(6)) / 6.0
    assert np.abs(result.final_state - oracle).max() < 1e-8
    assert result.conserved_drift < 1e-9
    assert result.lift_direct_gap < 1e-8


def test_quantum_validation():
    g2 = symmetric_group(2)
    sched = CyclicSchedule(g2, [1], 0.5)
    with pytest.raises(ValueError, match="Hermitian"):
        run_quantum_gossip(2, 2, [(0, 1)], sched, np.diag([1.0, 2.0, 3.0, 4.0j]), 1)
    with pytest.raises(ValueError, match="exceeds the dense cap"):
        run_quantum_gossip(
            7, 2, [(0, 1)], CyclicSchedule(symmetric_group(7), [1], 0.5),
            np.eye(128), 1,
        )
    with pytest.raises(ValueError, match="shape"):
        run_quantum_gossip(2, 2, [(0, 1)], sched, np.eye(3), 1)


# -- dft ---------------------------------------------------------------------------------


def test_dft_constant_vector_hits_dc_bin():
    z4 = cyclic_group(4)
    sched = CyclicSchedule(z4, [1], 0.5)
    result = run_dft(4, np.full(4, 2.0 + 1.0j), sched, 40, early_stop=False)
    chi = result.extras["chi"]
    assert np.abs(chi - np.array([2.0 + 1.0j, 0, 0, 0])).max() < 1e-12
    assert result.extras["exact_first_row_gap"] < 1e-12


def test_dft_impulse_spreads_evenly():
    z4 = cyclic_group(4)
    sched = CyclicSchedule(z4, [1], 0.5)
    result = run_dft(4, np.array([1.0, 0.0, 0.0, 0.0]), sched, 200, threshold=1e-10)
    chi = result.extras["chi"]
    assert np.abs(chi - 0.25).max() < 1e-12
    assert result.extras["first_row_gap"] < 1e-8


def test_dft_random_vector_first_row_converges():
    z8 = cyclic_group(8)
    sched = CyclicSchedule(z8, [1], 0.5)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    result = run_dft(8, x, sched, 500, early_stop=False)
    # exact symmetrizer output equals the direct formula in the first row
    n = np.arange(8)
    oracle = np.array(
        [np.sum(x * np.exp(-2j * np.pi * k * n / 8)) / 8 for k in range(8)]
    )
    assert np.abs(result.extras["chi"] - oracle).max() < 1e-12
    assert result.extras["exact_first_row_gap"] < 1e-10
    assert result.extras["first_row_gap"] < 1e-6


def test_dft_spectral_residual_keeps_the_run():
    # the DFT action's Fourier-diagonal residual against the orbit-block one
    N = 64
    schedule = RandomGossipSchedule(cyclic_group(N), list(range(1, N)), (0.3, 0.7), seed=64)
    rng = np.random.default_rng(64)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    action = dft_action(N)

    def orbit_block_residual(X):
        flat = X.ravel()
        return max(
            float(np.linalg.norm(block - flat, axis=1).max())
            for _, block in action.orbit_blocks(X)
        )

    spectral = run_dft(N, x, schedule, 400, threshold=1e-8)
    blocks = run_dft(N, x, schedule, 400, threshold=1e-8, residual_fn=orbit_block_residual)
    assert spectral.converged and 0 < spectral.steps_run < 400
    assert spectral.steps_run == blocks.steps_run
    # Both evaluations carry round-off of order eps * ||X|| whatever the
    # residual's size: near the 1e-8 stop each is about 2.5e-9 relative off a
    # long-double reference, so below ~1e-6 the bound is the absolute one.
    round_off = np.finfo(np.float64).eps * np.linalg.norm(np.outer(x, np.ones(N)))
    assert np.allclose(spectral.residuals, blocks.residuals, rtol=1e-9, atol=round_off)
    assert np.array_equal(spectral.final_state, blocks.final_state)


def _s3_engine_case(protocol, steps=300):
    """(action, x0, schedule, result) for one orbit-matrix runner on S3."""
    rng = np.random.default_rng(12)
    m = 3
    group = symmetric_group(m)
    sched = RandomGossipSchedule(
        group, edge_transpositions(group, m, complete_edges(m)), (0.3, 0.7), seed=6
    )
    if protocol == "gossip":
        x0 = rng.standard_normal(m * 2)
        result = run_gossip_consensus(m, 2, complete_edges(m), sched, x0, steps)
        return permutation_action(m, 2, group), x0, sched, result
    if protocol == "prob-sym":
        raw = rng.random((2, 2, 2))
        joint0 = raw / raw.sum()
        result = run_probability_symmetrization(
            m, 2, complete_edges(m), sched, joint0, steps
        )
        return axis_permutation_action(m, 2, group), joint0, sched, result
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    X0 = (a + a.conj().T) / 2.0
    result = run_quantum_gossip(m, 2, complete_edges(m), sched, X0, steps)
    action = conjugation_action(group, subsystem_permutation_unitaries(group, 2))
    return action, X0, sched, result


@pytest.mark.parametrize("protocol", ["gossip", "quantum-gossip", "prob-sym"])
def test_orbit_matrix_runners_keep_their_average_and_lift_gap_bit_for_bit(protocol):
    action, x0, sched, result = _s3_engine_case(protocol)
    assert result.converged and result.steps_run > 0
    # reference: the orbit matrix against the re-stepped state, and its row mean
    orbit_matrix = action.orbit_matrix(x0)
    average = orbit_matrix.mean(axis=0).reshape(action.space.shape)
    x = action.space.validate(x0)
    gap = 0.0
    rows = result.weights_trajectory[1:]
    signal = sched.realize(result.steps_run)
    for idx, w, row in zip(signal.idx, signal.w, rows):
        x = step(action, idx, w, x)
        gap = max(gap, float(np.abs(row @ orbit_matrix - x.ravel()).max()))
    assert np.array_equal(x, result.final_state)
    assert np.array_equal(result.orbit_average, average)
    assert result.lift_direct_gap == gap


def test_dft_run_builds_no_orbit_matrix(monkeypatch):
    calls = []
    for name in ("orbit_matrix", "orbit_blocks"):
        inner = getattr(LinearAction, name)

        def counting(self, x, _inner=inner, _name=name):
            calls.append(_name)
            return _inner(self, x)

        monkeypatch.setattr(LinearAction, name, counting)
    N = 32
    sched = RandomGossipSchedule(cyclic_group(N), list(range(1, N)), (0.3, 0.7), seed=8)
    x = np.random.default_rng(8).standard_normal(N) + 0j
    result = run_dft(N, x, sched, 400)
    assert result.converged and result.steps_run > 0
    assert 0 < result.lift_direct_gap <= result.lift_tolerance
    assert calls == []
    # the counter sees the orbit-matrix path of every other action
    run_gossip_consensus(3, 1, complete_edges(3), s3_cycle_schedule(), np.arange(3.0), 5)
    assert calls.count("orbit_matrix") == 1


def test_dft_validation():
    z4 = cyclic_group(4)
    with pytest.raises(ValueError, match="shape"):
        run_dft(4, np.zeros(3), CyclicSchedule(z4, [1], 0.5), 1)


# -- random state generation ----------------------------------------------------------


def test_random_state_zero_steps_stays_put():
    z4 = cyclic_group(4)
    act = regular_action(z4)
    y0 = np.array([1.0, 0.0, 0.0, 0.0])
    sched = CyclicSchedule(z4, [1], 0.5)
    result = run_random_state_generation(act, y0, sched, 0, 500, seed=3)
    assert np.array_equal(result.final_state, [1.0, 0.0, 0.0, 0.0])


def test_random_state_z4_approaches_uniform():
    z4 = cyclic_group(4)
    act = regular_action(z4)
    y0 = np.array([1.0, 0.0, 0.0, 0.0])
    sched = CyclicSchedule(z4, [1], 0.5)
    result = run_random_state_generation(act, y0, sched, 20, 20000, seed=11)
    assert result.extras["tv_empirical_uniform"] < 0.02
    assert result.extras["tv_empirical_exact"] < 0.02
    assert result.converged
    # the lifted law is the exact sampling distribution; empirical agreement
    # at 20k trials should be ~1% scale
    exact = result.extras["exact_law"]
    assert np.abs(exact.sum() - 1.0) < 1e-12


def test_random_state_reproducible():
    z4 = cyclic_group(4)
    act = regular_action(z4)
    y0 = np.array([1.0, 0.0, 0.0, 0.0])
    sched = CyclicSchedule(z4, [1], 0.5)
    a = run_random_state_generation(act, y0, sched, 10, 2000, seed=42)
    b = run_random_state_generation(act, y0, sched, 10, 2000, seed=42)
    assert np.array_equal(a.final_state, b.final_state)
    c = run_random_state_generation(act, y0, sched, 10, 2000, seed=43)
    assert not np.array_equal(a.final_state, c.final_state)


def test_random_state_orbit_collision_names_pair():
    g2 = symmetric_group(2)
    act = permutation_action(2, 1, g2)
    with pytest.raises(ValueError, match="between elements 0 and 1"):
        run_random_state_generation(
            act, np.array([3.0, 3.0]),
            CyclicSchedule(g2, [1], 0.5), 5, 100, seed=1,
        )


def test_random_state_subgroup_trap_confines_support():
    z6 = cyclic_group(6)
    act = regular_action(z6)
    y0 = np.zeros(6)
    y0[0] = 1.0
    sched = CyclicSchedule(z6, [2], 0.5)
    result = run_random_state_generation(act, y0, sched, 15, 4000, seed=9)
    empirical = result.extras["empirical"]
    assert empirical[1] == 0.0 and empirical[3] == 0.0 and empirical[5] == 0.0
    assert abs(empirical.sum() - 1.0) < 1e-12


def test_random_state_validation():
    z4 = cyclic_group(4)
    act = regular_action(z4)
    y0 = np.array([1.0, 0.0, 0.0, 0.0])
    sched = CyclicSchedule(z4, [1], 0.5)
    with pytest.raises(ValueError, match="trials"):
        run_random_state_generation(act, y0, sched, 5, 0, seed=1)
    with pytest.raises(ValueError, match="seed"):
        run_random_state_generation(act, y0, sched, 5, 10, seed=None)


def pairwise_collision_oracle(orbit):
    """Oracle: the first pair of the all-pairs loop within 1e-12 in max norm."""
    for g in range(len(orbit)):
        for h in range(g + 1, len(orbit)):
            if np.abs(orbit[g] - orbit[h]).max() < 1e-12:
                return g, h
    return None


def coset_invariant_state(group, t, gap, seed=5):
    """A regular-action state with y[t*x] = y[x] + gap for x < t*x (t an involution)."""
    table = group.table
    y = np.random.default_rng(seed).normal(size=group.order)
    for x in range(group.order):
        if x < table[t, x]:
            y[table[t, x]] = y[x] + gap
    return y


@pytest.mark.parametrize("gap, collides", [(0.0, True), (0.5e-12, True), (2e-12, False)])
def test_orbit_collision_scan_matches_the_pairwise_loop(gap, collides):
    s4 = symmetric_group(4)
    cases = [
        # repeated or nearly repeated agent values under S4 on R^4
        (permutation_action(4, 1, s4), np.array([2.0, 1.0, 1.0 + gap, -3.0])),
        # left translation by (0 1) (nearly) fixes the state of the regular action
        (regular_action(s4), coset_invariant_state(s4, transposition_index(s4, 0, 1), gap)),
        (regular_action(cyclic_group(8)), coset_invariant_state(cyclic_group(8), 4, gap)),
    ]
    for act, y0 in cases:
        oracle = pairwise_collision_oracle(act.orbit(y0))
        assert (oracle is not None) == collides
        assert applications_module._orbit_collision(act.orbit_matrix(y0)) == oracle
        sched = CyclicSchedule(act.group, [1], 0.5)
        if collides:
            with pytest.raises(ValueError, match=f"between elements {oracle[0]} and {oracle[1]};"):
                run_random_state_generation(act, y0, sched, 2, 10, seed=1)
        else:
            run_random_state_generation(act, y0, sched, 2, 10, seed=1)


def test_orbit_collision_scan_on_tied_keys():
    # every orbit row starts with the same value, so every pair is a candidate
    rows = np.zeros((40, 3))
    rows[:, 1] = np.arange(40) % 7
    rows[:, 2] = np.arange(40) % 5
    assert applications_module._orbit_collision(rows) == pairwise_collision_oracle(rows) == (0, 35)
    rows[35, 2] += 1.0
    assert applications_module._orbit_collision(rows) == pairwise_collision_oracle(rows)


def test_random_state_support_walk_matches_a_dense_table_walk():
    s4 = symmetric_group(4)
    act = regular_action(s4)
    y0 = np.random.default_rng(2).normal(size=s4.order)
    sched = RandomGossipSchedule(s4, [1, 5, 9, 14], (0.3, 0.7), seed=3)
    trials, steps = 5000, 12
    result = run_random_state_generation(act, y0, sched, steps, trials, seed=21)
    rng = np.random.Generator(np.random.PCG64(21))
    walk = np.full(trials, s4.identity, dtype=np.int64)
    for s in sched.realize(steps):
        walk = s4.table[rng.choice(s4.order, size=trials, p=s.weights), walk]
    counts = np.bincount(walk, minlength=s4.order)
    assert np.array_equal(result.final_state, counts / float(trials))


def spread_weights(k, seed, tiny=False):
    w = np.random.default_rng(seed).random(k) + 0.05
    if tiny and k > 1:
        w[k // 2] = 1e-17  # below the round-off of the cumulative sum around it
    return w / w.sum()


CUTOFF = applications_module.THRESHOLD_DRAW_MAX_SUPPORT


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("k", [1, 2, 5, 11, 32, 33, CUTOFF, CUTOFF + 1, 720])
def test_draw_is_generator_choice_on_the_same_stream(k, tiny, monkeypatch):
    p = spread_weights(k, seed=k, tiny=tiny)
    # each support size through its own branch, then through the other one
    # where the int8 count can hold it (up to 127 points)
    for cutoff in (CUTOFF, k - 1 if k <= CUTOFF else min(k, 127)):
        monkeypatch.setattr(applications_module, "THRESHOLD_DRAW_MAX_SUPPORT", cutoff)
        ours = np.random.Generator(np.random.PCG64(k))
        ref = np.random.Generator(np.random.PCG64(k))
        for size in (1, 20_000):
            draws = applications_module._draw(ours, applications_module._cdf(p), np.empty(size))
            assert np.array_equal(draws, ref.choice(k, size=size, p=p))
            assert ours.bit_generator.state == ref.bit_generator.state


def custom_rows(order, supports, seed=4):
    rng = np.random.default_rng(seed)
    rows = []
    for k in supports:
        w = np.zeros(order)
        w[rng.choice(order, size=k, replace=False)] = rng.random(k) + 0.05
        rows.append(w / w.sum())
    return rows


@pytest.mark.parametrize(
    "group, make_schedule",
    [
        # k > 2: the identity plus up to five support elements per step
        (symmetric_group(4), lambda g: RandomSubsetSchedule(g, [1, 5, 9, 14, 20], (0.3, 0.7), 8)),
        # rows with more support than the counting draw takes, and one below it
        (
            symmetric_group(5),
            lambda g: ExplicitSchedule(g, custom_rows(g.order, [120, 3, 40]), policy="cycle"),
        ),
        (cyclic_group(12), lambda g: RandomGossipSchedule(g, [1, 5, 7], (0.3, 0.7), seed=6)),
    ],
    ids=["random-subset", "custom-sequence", "cyclic"],
)
def test_random_state_walk_matches_a_dense_table_walk_on_more_schedules(group, make_schedule):
    act = regular_action(group)
    y0 = np.random.default_rng(2).normal(size=group.order)
    sched = make_schedule(group)
    trials, steps = 5000, 7
    result = run_random_state_generation(act, y0, sched, steps, trials, seed=21)
    rng = np.random.Generator(np.random.PCG64(21))
    walk = np.full(trials, group.identity, dtype=np.int64)
    for s in sched.realize(steps):
        walk = group.table[rng.choice(group.order, size=trials, p=s.weights), walk]
    counts = np.bincount(walk, minlength=group.order)
    assert np.array_equal(result.final_state, counts / float(trials))


def dense_table_walk_counts(group, sched, steps, trials, seed):
    """Endpoint counts of a walk that draws every trial by ``choice``, one step at a time."""
    rng = np.random.Generator(np.random.PCG64(seed))
    walk = np.full(trials, group.identity, dtype=np.int64)
    for s in sched.realize(steps):
        walk = group.table[rng.choice(group.order, size=trials, p=s.weights), walk]
    return np.bincount(walk, minlength=group.order)


# The walk's own block and draw.  The wrappers below wrap these, never an
# earlier wrapper: a test that wraps twice would otherwise also run the first
# wrapper's barrier, which a new thread (one whose ident was not reused) waits
# on alone until it times out.
WALK_BLOCK, WALK_DRAW = applications_module._Walk.block, applications_module._draw


def record_claims(monkeypatch):
    """Wrap ``_Walk.block`` to record each (thread, first trial) claim.

    Each thread's first block waits until the other thread has claimed one
    too, so both workers claim blocks however the threads are scheduled.
    """
    claims = []
    meeting = threading.Barrier(2, timeout=10)
    block = WALK_BLOCK

    def claimed(self, lo):
        me = threading.get_ident()
        first = all(thread != me for thread, _ in claims)
        claims.append((me, lo))
        if first:
            meeting.wait()
        return block(self, lo)

    monkeypatch.setattr(applications_module._Walk, "block", claimed)
    return claims


WALK_SCHEDULES = {
    "random-gossip": (
        symmetric_group(4),
        lambda g: RandomGossipSchedule(g, [1, 5, 9, 14], (0.3, 0.7), seed=3),
        12,
    ),
    "random-subset": (
        symmetric_group(4),
        lambda g: RandomSubsetSchedule(g, [1, 5, 9, 14, 20], (0.3, 0.7), 8),
        7,
    ),
    # 120- and 40-point rows and a 3-point one
    "custom-sequence": (
        symmetric_group(5),
        lambda g: ExplicitSchedule(g, custom_rows(g.order, [120, 3, 40]), policy="cycle"),
        7,
    ),
    "cyclic": (cyclic_group(12), lambda g: RandomGossipSchedule(g, [1, 5, 7], (0.3, 0.7), seed=6), 7),
    "zero-steps": (symmetric_group(4), lambda g: CyclicSchedule(g, [1], 0.5), 0),
    # 720-, 300- and 3-point rows: supports over 255 and over 127, through
    # both draw branches, and too wide for a run of two steps
    "custom-sequence-s6": (
        symmetric_group(6),
        lambda g: ExplicitSchedule(g, custom_rows(g.order, [720, 300, 3]), policy="cycle"),
        7,
    ),
    # the identity among the gossip elements: steps 1, 6 and 7 put all their
    # weight on it, a one-point row in a signal of two-point rows
    "one-point-steps": (
        symmetric_group(4),
        lambda g: RandomGossipSchedule(g, [0, 1, 5, 9], (0.3, 0.7), seed=3),
        11,
    ),
}


# the default cutoff, and 1, which sends every support of two or more points
# through the binary search
@pytest.mark.parametrize("cutoff", [applications_module.THRESHOLD_DRAW_MAX_SUPPORT, 1])
# five full blocks, and four with a short last one
@pytest.mark.parametrize("trials", [5000, 4999])
@pytest.mark.parametrize("name", list(WALK_SCHEDULES))
def test_threaded_walk_matches_a_dense_table_walk(name, trials, cutoff, monkeypatch):
    group, make_schedule, steps = WALK_SCHEDULES[name]
    monkeypatch.setattr(applications_module, "WALK_BLOCK_TRIALS", 1000)
    monkeypatch.setattr(applications_module, "THRESHOLD_DRAW_MAX_SUPPORT", cutoff)
    claims = record_claims(monkeypatch)
    act = regular_action(group)
    y0 = np.random.default_rng(2).normal(size=group.order)
    result = run_random_state_generation(act, y0, make_schedule(group), steps, trials, seed=21)
    counts = dense_table_walk_counts(group, make_schedule(group), steps, trials, 21)
    assert np.array_equal(result.final_state, counts / float(trials))
    # every block claimed once, and by both workers
    assert sorted(lo for _, lo in claims) == list(range(0, trials, 1000))
    assert len({thread for thread, _ in claims}) == 2


def record_runs(monkeypatch):
    """Wrap ``_Walk._compose`` to record the steps of each composed run."""
    runs = []
    compose = applications_module._Walk._compose

    def recorded(self, run, table, spare):
        runs.append(list(run))
        return compose(self, run, table, spare)

    monkeypatch.setattr(applications_module._Walk, "_compose", recorded)
    return runs


# runs of one, two and three steps, each cut by a BLOCK_BYTES whose walk
# table budget (a sixteenth) holds just that run's K**c rows of |G| int32
# entries, and the runs of the default budget
@pytest.mark.parametrize("run", [1, 2, 3, None], ids=["run1", "run2", "run3", "default"])
@pytest.mark.parametrize("name", list(WALK_SCHEDULES))
def test_walk_in_composed_runs_matches_a_dense_table_walk(name, run, monkeypatch):
    group, make_schedule, steps = WALK_SCHEDULES[name]
    width = make_schedule(group).realize(steps).idx.shape[1]
    budget = None if run is None else 16 * 4 * group.order * width**run
    fits = budget is not None and budget <= applications_module.BLOCK_BYTES
    if fits:
        monkeypatch.setattr(applications_module, "BLOCK_BYTES", budget)
    c = applications_module._run_steps(width, group.order, steps)
    if run is not None:
        # a support too wide for the run under the default budget walks step by step
        assert c == (max(1, min(run, steps)) if fits else 1)
    monkeypatch.setattr(applications_module, "WALK_BLOCK_TRIALS", 1000)
    claims, runs = record_claims(monkeypatch), record_runs(monkeypatch)
    act = regular_action(group)
    y0 = np.random.default_rng(2).normal(size=group.order)
    result = run_random_state_generation(act, y0, make_schedule(group), steps, 4999, seed=21)
    counts = dense_table_walk_counts(group, make_schedule(group), steps, 4999, 21)
    assert np.array_equal(result.final_state, counts / 4999.0)
    # each of the five blocks composes the runs of c steps, the last one short
    cut = [list(range(a, min(a + c, steps))) for a in range(0, steps, c)] if c > 1 else []
    assert sorted(runs) == sorted(cut * 5)
    assert len({thread for thread, _ in claims}) == 2


def test_threaded_walk_under_fast_thread_switching(monkeypatch):
    # 200 blocks of 100 trials, with the interpreter switching threads every
    # few microseconds: a block claimed twice or lost changes the counts
    group, make_schedule, steps = WALK_SCHEDULES["random-subset"]
    monkeypatch.setattr(applications_module, "WALK_BLOCK_TRIALS", 100)
    claims = record_claims(monkeypatch)
    act = regular_action(group)
    y0 = np.random.default_rng(2).normal(size=group.order)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = run_random_state_generation(act, y0, make_schedule(group), steps, 20_000, seed=5)
    finally:
        sys.setswitchinterval(interval)
    counts = dense_table_walk_counts(group, make_schedule(group), steps, 20_000, 5)
    assert np.array_equal(result.final_state, counts / 20_000.0)
    assert sorted(lo for _, lo in claims) == list(range(0, 20_000, 100))


def test_one_block_walk_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a walk of one block started a thread")

    monkeypatch.setattr(applications_module, "WALK_BLOCK_TRIALS", 1000)
    monkeypatch.setattr(
        applications_module, "threading", SimpleNamespace(Lock=threading.Lock, Thread=no_thread)
    )
    group, make_schedule, steps = WALK_SCHEDULES["random-subset"]
    act = regular_action(group)
    y0 = np.random.default_rng(2).normal(size=group.order)
    result = run_random_state_generation(act, y0, make_schedule(group), steps, 1000, seed=21)
    counts = dense_table_walk_counts(group, make_schedule(group), steps, 1000, 21)
    assert np.array_equal(result.final_state, counts / 1000.0)


def fail_on_the_helper(monkeypatch):
    """Make ``_draw`` raise on the walk's second thread, in the first block it takes.

    The calling thread's draws wait until that thread has failed and ended,
    so the calling thread is still inside its first block when the failure
    lands.  Returns the exception raised and the recorded claims.
    """
    boom = RuntimeError("draw failed on the helper thread")
    failed = threading.Event()
    helper = []
    draw = WALK_DRAW

    def flaky(rng, cdf, u):
        if threading.current_thread() is not threading.main_thread():
            helper.append(threading.current_thread())
            failed.set()
            raise boom
        assert failed.wait(10)
        helper[0].join(10)
        assert not helper[0].is_alive()
        return draw(rng, cdf, u)

    monkeypatch.setattr(applications_module, "_draw", flaky)
    return boom, record_claims(monkeypatch)


def test_a_failed_worker_stops_the_walk(monkeypatch, tmp_path):
    monkeypatch.setattr(applications_module, "WALK_BLOCK_TRIALS", 1000)
    threads = threading.active_count()
    group, make_schedule, steps = WALK_SCHEDULES["random-gossip"]
    y0 = np.random.default_rng(2).normal(size=group.order)

    boom, claims = fail_on_the_helper(monkeypatch)
    with pytest.raises(RuntimeError) as info:
        run_random_state_generation(
            regular_action(group), y0, make_schedule(group), steps, 5000, seed=21
        )
    assert info.value is boom
    # one block each: neither worker claimed another after the failure
    assert len(claims) == 2 and len({thread for thread, _ in claims}) == 2
    assert threading.active_count() == threads

    boom, claims = fail_on_the_helper(monkeypatch)
    cfg = parse_config(
        {
            "schema_version": 1,
            "application": "random-state",
            "params": {"group": {"kind": "symmetric", "m": 4}},
            "schedule": {"kind": "random-gossip", "support": [1, 5, 9, 14]},
            "steps": steps,
            "trials": 5000,
            "seed": 1,
        }
    )
    out = tmp_path / "run"
    with pytest.raises(HarnessError) as info:
        execute(cfg, out_dir=str(out))
    assert info.value.__cause__ is boom
    assert len(claims) == 2 and len({thread for thread, _ in claims}) == 2
    assert threading.active_count() == threads
    assert not out.exists() and list(tmp_path.iterdir()) == []


# -- dynamical decoupling ---------------------------------------------------------------


def test_dd_pauli_drift_killed_in_two_bisections():
    group = pauli_quotient_group()
    I, X, Y, Z = pauli_matrices()
    U = pauli_matrices()
    H_d = 0.3 * X + 0.7 * Z
    result = run_dynamical_decoupling(group, H_d, U, [1, 3], 6)
    # matrix oracle: (1/4) sum P H P^dag = (tr H / 2) I = 0
    oracle = sum(P @ H_d @ P.conj().T for P in U) / 4.0
    assert np.abs(oracle).max() < 1e-15
    assert result.extras["class_residual"] < 1e-12
    assert result.residuals[0] == pytest.approx(np.linalg.norm(H_d))
    assert result.residuals[1] == pytest.approx(0.3 * np.sqrt(2.0), abs=1e-12)
    assert result.residuals[2] == 0.0
    assert np.abs(result.residuals[2:]).max() == 0.0
    certificate = certify_schedule(result.signal, 6, DEFAULT_TOLERANCES)
    assert certificate is not None
    assert certificate.T == 2
    assert certificate.delta == pytest.approx(0.25)


def test_dd_frames_unroll_in_block_order():
    group = pauli_quotient_group()
    U = pauli_matrices()
    result = run_dynamical_decoupling(group, U[3], U, [1, 3], 2)
    assert result.extras["frames"] == [0, 1, 3, 2]


def test_dd_scalar_drift_trivial():
    group = pauli_quotient_group()
    U = pauli_matrices()
    H_d = 2.5 * np.eye(2, dtype=np.complex128)
    result = run_dynamical_decoupling(group, H_d, U, [1, 3], 3)
    assert np.abs(result.residuals).max() < 1e-12
    assert result.conserved_drift < 1e-12


def test_dd_class_violation_reports_residual():
    z2 = cyclic_group(2)
    I, X, Y, Z = pauli_matrices()
    with pytest.raises(ValueError, match="off-scalar residual"):
        run_dynamical_decoupling(z2, X, np.array([I, X]), [1], 3)


def test_dd_envelope_bounds_residual_for_uneven_alpha():
    group = pauli_quotient_group()
    U = pauli_matrices()
    I, X, Y, Z = pauli_matrices()
    H_d = 0.3 * X + 0.7 * Z
    result = run_dynamical_decoupling(group, H_d, U, [1, 3], 12, alpha=0.25)
    cert = certify_schedule(result.signal, 12, DEFAULT_TOLERANCES)
    assert cert.satisfied and cert.T == 2
    assert cert.delta == pytest.approx(1.0 / 16.0)
    rho = 1.0 - 4.0 * cert.delta
    scale = np.linalg.norm(H_d)
    for n_step in range(13):
        bound = 3.0 * rho ** (n_step // 2) * scale
        assert result.residuals[n_step] <= bound + 1e-12


def test_dd_trace_conserved_and_hermitian():
    group = pauli_quotient_group()
    U = pauli_matrices()
    I, X, Y, Z = pauli_matrices()
    H_d = 1.5 * I + 0.4 * X - 0.2 * Y
    result = run_dynamical_decoupling(group, H_d, U, [1, 3], 8)
    assert result.conserved_drift < 1e-12
    final = result.final_state
    assert np.abs(final - final.conj().T).max() < 1e-12
    # off-scalar part is gone; the conserved scalar stays
    assert np.abs(final - 1.5 * np.eye(2)).max() < 1e-12


def test_dd_propagator_gap_shrinks_with_dt():
    group = pauli_quotient_group()
    U = pauli_matrices()
    I, X, Y, Z = pauli_matrices()
    H_d = 0.3 * X + 0.7 * Z
    coarse = run_dynamical_decoupling(group, H_d, U, [1, 3], 4, dt=0.05)
    fine = run_dynamical_decoupling(group, H_d, U, [1, 3], 4, dt=0.005)
    g_coarse = coarse.extras["propagator_gap"]
    g_fine = fine.extras["propagator_gap"]
    assert g_coarse[0] < 1e-12  # single interval: the two propagators coincide
    for n_step in range(1, 5):
        assert g_fine[n_step] < g_coarse[n_step] + 1e-15
    # first-order accuracy: gap scales roughly with (total duration x dt)
    assert g_fine[4] < 1e-3


def test_dd_hermiticity_validation():
    group = pauli_quotient_group()
    U = pauli_matrices()
    with pytest.raises(ValueError, match="Hermitian"):
        run_dynamical_decoupling(group, np.array([[0.0, 1.0], [0.0, 0.0]]), U, [1], 2)


# -- birkhoff ---------------------------------------------------------------------------


def test_birkhoff_star_matrix_recovers_lift_weights():
    alpha = 0.45
    A, s, group = star_consensus_example(alpha)
    w = birkhoff_weights(A, group)
    assert np.abs(w.weights - s.weights).max() < 1e-12


def test_birkhoff_reconstructs_random_mixture():
    rng = np.random.default_rng(8)
    m = 5
    coeffs = rng.dirichlet(np.ones(4))
    perms = [rng.permutation(m) for _ in range(4)]
    A = np.zeros((m, m))
    for c, pi in zip(coeffs, perms):
        P = np.zeros((m, m))
        P[np.arange(m), pi] = 1.0
        A += c * P
    weights, out_perms = birkhoff_decomposition(A)
    assert abs(weights.sum() - 1.0) < 1e-9
    recon = np.zeros((m, m))
    for w, pi in zip(weights, out_perms):
        recon[np.arange(m), pi] += w
    assert np.abs(recon - A).max() < 1e-8


def test_birkhoff_permutation_matrix_single_term():
    P = np.zeros((4, 4))
    P[np.arange(4), [2, 0, 3, 1]] = 1.0
    weights, perms = birkhoff_decomposition(P)
    assert len(weights) == 1
    assert weights[0] == pytest.approx(1.0)
    assert np.array_equal(perms[0], [2, 0, 3, 1])


def test_birkhoff_validation():
    with pytest.raises(ValueError, match="square"):
        birkhoff_decomposition(np.ones((2, 3)))
    with pytest.raises(ValueError, match="negative"):
        birkhoff_decomposition(np.array([[1.5, -0.5], [-0.5, 1.5]]))
    with pytest.raises(ValueError, match="doubly stochastic"):
        birkhoff_decomposition(np.array([[0.9, 0.0], [0.0, 0.9]]))


def test_birkhoff_weights_reproduce_transition_structure():
    # lifting a doubly stochastic matrix and pushing it back down is identity
    rng = np.random.default_rng(9)
    group = symmetric_group(3)
    act = permutation_action(3, 1, group)
    coeffs = rng.dirichlet(np.ones(3))
    perms = [np.array([0, 1, 2]), np.array([1, 0, 2]), np.array([2, 1, 0])]
    A = np.zeros((3, 3))
    for c, pi in zip(coeffs, perms):
        P = np.zeros((3, 3))
        P[np.arange(3), pi] = 1.0
        A += c * P
    w = birkhoff_weights(A, group)
    stacked = sum(w.weights[g] * act.matrix(g) for g in range(6))
    assert np.abs(stacked - A).max() < 1e-10
