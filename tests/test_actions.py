"""Tests for linear group actions, orbit averaging, and state serialization."""

from __future__ import annotations

import base64
import gc
import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import groupsym.actions as actions_module
import groupsym.groups as groups_module
from groupsym.actions import (
    LinearAction,
    ProjectionCheck,
    VectorSpace,
    axis_permutation_action,
    conjugation_action,
    conserved_value,
    decode_state,
    dft_action,
    encode_state,
    fixed_point_residual,
    inner,
    is_projection,
    load_state,
    pauli_matrices,
    pauli_quotient_group,
    pauli_unitaries,
    permutation_action,
    regular_action,
    restricted_operator_bound,
    save_state,
    step,
    subsystem_permutation_action,
    subsystem_permutation_unitaries,
    symmetrizer,
)
from groupsym.groups import (
    cyclic_group,
    group_from_json,
    group_from_table,
    permutation_index,
    symmetric_group,
    transposition_index,
)
from groupsym.applications import run_symmetrization
from groupsym.schedules import CyclicSchedule
from groupsym.lifted import ConvexWeights, Signal, convolve, run_lifted, transition_matrix
from oracles import dft_direct_step, orbit_walk_residual, orbit_walk_symmetrizer


def two_point(group, other, alpha):
    w = np.zeros(group.order)
    w[group.identity] = 1.0 - alpha
    w[other] = alpha
    return ConvexWeights(w, group)


def row(s):
    """The Signal row (idx, w) of one ConvexWeights, the form ``step`` takes."""
    (idx,), (w,) = Signal.from_weights([s]).rows(0, 1)
    return idx, w


# -- action axioms -------------------------------------------------------------


def test_permutation_action_axioms_exhaustive():
    g3 = symmetric_group(3)
    act = permutation_action(3, 2, g3)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(6)
    assert np.array_equal(act.apply(g3.identity, x), x)
    for h in range(6):
        for g in range(6):
            lhs = act.apply(h, act.apply(g, x))
            rhs = act.apply(g3.mul(h, g), x)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_axis_permutation_action_axioms_exhaustive():
    g3 = symmetric_group(3)
    act = axis_permutation_action(3, 2, g3)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 2, 2))
    assert np.array_equal(act.apply(g3.identity, x), x)
    for h in range(6):
        for g in range(6):
            lhs = act.apply(h, act.apply(g, x))
            rhs = act.apply(g3.mul(h, g), x)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_regular_action_axioms_exhaustive():
    group = symmetric_group(3)
    act = regular_action(group)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(6)
    for h in range(6):
        for g in range(6):
            lhs = act.apply(h, act.apply(g, v))
            rhs = act.apply(group.mul(h, g), v)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_dft_action_axioms_exhaustive():
    act = dft_action(4)
    group = act.group
    rng = np.random.default_rng(10)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for h in range(4):
        for g in range(4):
            lhs = act.apply(h, act.apply(g, X))
            rhs = act.apply(group.mul(h, g), X)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_conjugation_action_axioms_exhaustive():
    group, U = pauli_unitaries()
    act = conjugation_action(group, U)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for h in range(4):
        for g in range(4):
            lhs = act.apply(h, act.apply(g, X))
            rhs = act.apply(group.mul(h, g), X)
            assert np.abs(lhs - rhs).max() < 1e-12


# -- block permutations and gossip steps ---------------------------------------


def test_swap_moves_scalar_blocks():
    g2 = symmetric_group(2)
    act = permutation_action(2, 1, g2)
    swapped = act.apply(1, np.array([3.0, 7.0]))
    assert np.array_equal(swapped, [7.0, 3.0])


def test_swap_moves_vector_blocks():
    g3 = symmetric_group(3)
    act = permutation_action(3, 2, g3)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    tr01 = transposition_index(g3, 0, 1)
    moved = act.apply(tr01, x)
    assert np.array_equal(moved, [3.0, 4.0, 1.0, 2.0, 5.0, 6.0])


def test_three_cycle_routes_blocks():
    g3 = symmetric_group(3)
    act = permutation_action(3, 1, g3)
    # pi sends 0->1->2->0; block i lands in slot pi(i)
    pi = permutation_index(g3, [1, 2, 0])
    moved = act.apply(pi, np.array([10.0, 20.0, 30.0]))
    assert np.array_equal(moved, [30.0, 10.0, 20.0])


def test_gossip_pair_update_formula():
    g3 = symmetric_group(3)
    act = permutation_action(3, 1, g3)
    alpha = 0.3
    x = np.array([1.0, 5.0, 9.0])
    s = two_point(g3, transposition_index(g3, 0, 1), alpha)
    out = step(act, *row(s), x)
    expected = np.array(
        [(1 - alpha) * 1.0 + alpha * 5.0, (1 - alpha) * 5.0 + alpha * 1.0, 9.0]
    )
    assert np.abs(out - expected).max() < 1e-15


def test_full_symmetrization_reaches_average():
    g3 = symmetric_group(3)
    act = permutation_action(3, 1, g3)
    avg = symmetrizer(act, np.array([0.0, 3.0, 6.0]))
    assert np.abs(avg - np.array([3.0, 3.0, 3.0])).max() < 1e-14


def test_permutation_action_rejects_wrong_group():
    klein = pauli_quotient_group()
    with pytest.raises(ValueError, match="does not act"):
        permutation_action(4, 1, klein)
    with pytest.raises(ValueError, match="does not act"):
        permutation_action(2, 3, symmetric_group(3))


# -- symmetrizer and projection structure --------------------------------------


def test_symmetrizer_is_idempotent_and_invariant():
    g3 = symmetric_group(3)
    act = permutation_action(3, 2, g3)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(6)
    avg = symmetrizer(act, x)
    again = symmetrizer(act, avg)
    assert np.abs(avg - again).max() < 1e-14
    assert fixed_point_residual(act, avg) < 1e-14


def test_symmetrizer_oracle_direct_sum():
    group, U = pauli_unitaries()
    act = conjugation_action(group, U)
    rng = np.random.default_rng(13)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    oracle = sum(U[g] @ X @ U[g].conj().T for g in range(4)) / 4.0
    assert np.abs(symmetrizer(act, X) - oracle).max() < 1e-14


def test_pauli_twirl_collapses_to_scaled_identity():
    group, U = pauli_unitaries()
    act = conjugation_action(group, U)
    rng = np.random.default_rng(14)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    H = A + A.conj().T
    twirl = symmetrizer(act, H)
    target = (np.trace(H) / 2.0) * np.eye(2)
    assert np.abs(twirl - target).max() < 1e-12


def test_is_projection_for_unitary_action():
    g3 = symmetric_group(3)
    act = permutation_action(3, 2, g3)
    report = is_projection(act)
    assert isinstance(report, ProjectionCheck)
    assert report.idempotency_residual < 1e-12
    assert report.self_adjoint_residual < 1e-12
    assert report.is_projection
    assert act._matrices == {}


def test_is_projection_flags_non_self_adjoint_average():
    # Z2 represented by M with M @ M = I but M not orthogonal: the orbit
    # average is idempotent yet skew, so it is a projection only obliquely.
    z2 = cyclic_group(2)
    M = np.array([[1.0, 1.0], [0.0, -1.0]])
    mats = [np.eye(2), M]

    def apply_fn(g, x):
        return mats[g] @ x

    act = LinearAction(z2, VectorSpace((2,)), apply_fn)
    report = is_projection(act)
    assert report.idempotency_residual < 1e-12
    assert report.self_adjoint_residual > 0.4
    assert not report.is_projection
    assert act._matrices == {}
    with pytest.raises(ValueError, match="adjoint"):
        conserved_value(act, np.ones(2), np.ones(2))


def test_matrix_materialization_matches_apply():
    group, U = pauli_unitaries()
    act = conjugation_action(group, U)
    rng = np.random.default_rng(15)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for g in range(4):
        direct = act.apply(g, X).ravel()
        via_matrix = act.matrix(g) @ X.ravel()
        assert np.abs(direct - via_matrix).max() < 1e-12


# -- adjoints and conserved quantities -----------------------------------------


def test_adjoint_relation_for_unitary_actions():
    g3 = symmetric_group(3)
    act = permutation_action(3, 2, g3)
    rng = np.random.default_rng(16)
    x = rng.standard_normal(6)
    y = rng.standard_normal(6)
    for g in range(6):
        lhs = inner(act.apply(g, y), act.apply(g, x))
        assert abs(lhs - inner(y, x)) < 1e-12
        mixed = inner(act.apply(g, y), x)
        assert abs(mixed - inner(y, act.apply(act.adjoint_map[g], x))) < 1e-12


def test_conserved_value_sum_under_gossip():
    g3 = symmetric_group(3)
    act = permutation_action(3, 1, g3)
    x = np.array([1.0, 5.0, 9.0])
    z = np.ones(3)
    total = conserved_value(act, z, x)
    assert abs(total - 15.0) < 1e-14
    s = two_point(g3, transposition_index(g3, 1, 2), 0.45)
    moved = step(act, *row(s), x)
    assert abs(conserved_value(act, z, moved) - total) < 1e-12


def test_conserved_value_trace_under_conjugation():
    group, U = pauli_unitaries()
    act = conjugation_action(group, U)
    rng = np.random.default_rng(17)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    z = np.eye(2, dtype=np.complex128)
    val = conserved_value(act, z, X)
    assert abs(val - np.trace(X)) < 1e-12
    s = two_point(group, 2, 0.25)
    moved = step(act, *row(s), X)
    assert abs(conserved_value(act, z, moved) - val) < 1e-12


def test_conserved_value_rejects_non_fixed_z():
    g3 = symmetric_group(3)
    act = permutation_action(3, 1, g3)
    with pytest.raises(ValueError, match="fixed point"):
        conserved_value(act, np.array([1.0, 0.0, 0.0]), np.ones(3))


def test_conjugation_preserves_trace_and_spectrum():
    group, U = pauli_unitaries()
    act = conjugation_action(group, U)
    rng = np.random.default_rng(18)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    H = A + A.conj().T
    base = np.sort(np.linalg.eigvalsh(H))
    s = ConvexWeights(np.array([0.4, 0.2, 0.2, 0.2]), group)
    moved = step(act, *row(s), H)
    assert abs(np.trace(moved) - np.trace(H)) < 1e-9
    # one unitary conjugation preserves the spectrum exactly; mixing does not,
    # but every orbit element does
    for g in range(4):
        spec = np.sort(np.linalg.eigvalsh(act.apply(g, H)))
        assert np.abs(spec - base).max() < 1e-9


# -- regular action ties back to the lifted dynamics ---------------------------


def test_regular_action_moves_basis_vectors():
    group = symmetric_group(3)
    act = regular_action(group)
    e_id = np.zeros(6)
    e_id[group.identity] = 1.0
    for h in range(6):
        image = act.apply(h, e_id)
        expected = np.zeros(6)
        expected[h] = 1.0
        assert np.array_equal(image, expected)


def test_transition_matrix_is_weighted_sum_of_regular_matrices():
    group = symmetric_group(3)
    act = regular_action(group)
    rng = np.random.default_rng(19)
    w = rng.dirichlet(np.ones(6))
    s = ConvexWeights(w, group)
    M = transition_matrix(s).matrix
    stacked = sum(w[h] * act.matrix(h) for h in range(6))
    assert np.abs(M - stacked).max() < 1e-12


def test_lifted_weights_reconstruct_direct_trajectory():
    group = symmetric_group(3)
    act = permutation_action(3, 2, group)
    rng = np.random.default_rng(20)
    x0 = rng.standard_normal(6)
    signal = [ConvexWeights(rng.dirichlet(np.ones(6)), group) for _ in range(12)]
    p = ConvexWeights.point_mass(group)
    x = x0.copy()
    orbit = act.orbit(x0)
    for s in signal:
        x = step(act, *row(s), x)
        p = convolve(s, p)
        recon = sum(p.weights[g] * orbit[g] for g in range(6))
        assert np.abs(recon - x).max() < 1e-9


# -- dft action ----------------------------------------------------------------


def test_dft_two_point_example():
    act = dft_action(2)
    a, b = 0.7, -0.2
    X = np.outer([a, b], [1.0, 1.0]).astype(np.complex128)
    moved = act.apply(1, X)
    expected = np.array([[b, -b], [a, -a]], dtype=np.complex128)
    assert np.abs(moved - expected).max() < 1e-15


def test_dft_symmetrizer_first_row_is_fourier_transform():
    N = 8
    act = dft_action(N)
    rng = np.random.default_rng(21)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    X = np.outer(x, np.ones(N))
    avg = symmetrizer(act, X)
    n = np.arange(N)
    oracle = np.array(
        [np.sum(x * np.exp(-2j * np.pi * k * n / N)) / N for k in range(N)]
    )
    assert np.abs(avg[0] - oracle).max() < 1e-12
    # matches numpy's convention up to the 1/N normalization
    assert np.abs(avg[0] - np.fft.fft(x) / N).max() < 1e-12


def test_dft_action_validates_group_order():
    with pytest.raises(ValueError, match="order"):
        dft_action(4, cyclic_group(5))


def orbit_block_residual(act, x):
    """max_g ||a(g, x) - x||_2 through the orbit blocks: the generic path."""
    flat = np.asarray(x).ravel()
    return max(
        float(np.linalg.norm(block - flat, axis=1).max()) for _, block in act.orbit_blocks(x)
    )


def test_dft_maps_are_diagonal_in_the_fourier_basis():
    N = 8
    act = dft_action(N)
    rng = np.random.default_rng(31)
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    m = np.arange(N)
    Y = np.fft.fft(X, axis=0)
    for k in range(N):
        phase = np.exp(2j * np.pi * k * (m[:, None] - m[None, :]) / N)
        assert np.abs(np.fft.fft(act.apply(k, X), axis=0) - phase * Y).max() < 1e-12


def dft_states(N, rng):
    """(label, state): random, a common fixed point, and one 1e-9 away."""
    noise = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    # fixed points are the matrices whose column-wise FFT is diagonal
    fixed = np.fft.ifft(np.diag(rng.standard_normal(N) + 1j * rng.standard_normal(N)), axis=0)
    return [("random", noise), ("fixed", fixed), ("near-fixed", fixed + 1e-9 * noise)]


@pytest.mark.parametrize("N", [1, 2, 3, 8, 17, 64])
def test_dft_spectral_residual_matches_orbit_blocks(N):
    act = dft_action(N)
    for label, X in dft_states(N, np.random.default_rng(N)):
        got = fixed_point_residual(act, X)
        expected = orbit_block_residual(act, X)
        if label == "random":
            assert got == pytest.approx(expected, rel=1e-12, abs=0)
        else:
            assert abs(got - expected) <= 1e-13 * np.linalg.norm(X)
        if label == "fixed":
            assert got <= 1e-13 * np.linalg.norm(X)


def test_dft_spectral_residual_on_a_table_built_group():
    N = 8
    group = group_from_table(cyclic_group(N).table)
    assert group is not cyclic_group(N)
    act = dft_action(N, group)
    for _, X in dft_states(N, np.random.default_rng(32)):
        assert abs(fixed_point_residual(act, X) - orbit_block_residual(act, X)) <= (
            1e-12 * np.linalg.norm(X)
        )
        assert fixed_point_residual(act, X) == fixed_point_residual(dft_action(N), X)


def dft_kernel_round_off(N, X):
    """Round-off bound on |mix(p) - p @ orbit_matrix| for the DFT action.

    Both sides are convex combinations of the N orbit images, whose entries
    are at most ||X||_inf.  The orbit-matrix sum of N terms carries at most
    N eps ||X||_inf.  The kernel's length-N and column-wise FFTs carry
    O(eps log2 N) of a column's 2-norm, which is at most sqrt(N) ||X||_inf.
    Four times the sum of the two covers the constants of both.
    """
    eps = np.finfo(np.float64).eps
    return 4 * eps * (N + np.sqrt(N) * np.log2(2 * N)) * np.abs(X).max()


def dft_weight_vectors(N, rng):
    """(label, p): random dense, one-hot, dense with zeros, uniform."""
    dense = rng.random(N)
    holes = dense * (rng.random(N) < 0.5)
    holes[rng.integers(N)] = 1.0  # at least one nonzero
    one_hot = np.zeros(N)
    one_hot[rng.integers(N)] = 1.0
    return [
        ("dense", dense / dense.sum()),
        ("one-hot", one_hot),
        ("zeros", holes / holes.sum()),
        ("uniform", np.full(N, 1.0 / N)),
    ]


@pytest.mark.parametrize("N", [1, 2, 3, 8, 17, 64])
def test_dft_mixing_kernel_matches_the_orbit_matrix(N):
    act = dft_action(N)
    rng = np.random.default_rng(100 + N)
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    orbit_matrix = act.orbit_matrix(X)
    bound = dft_kernel_round_off(N, X)
    mix, average = act.mixer(X)
    for label, p in dft_weight_vectors(N, rng):
        assert np.abs(mix(p) - p @ orbit_matrix).max() <= bound, label
    for k in range(N):  # every single map a(k, X)
        assert np.abs(mix(np.eye(N)[k]) - act.apply(k, X).ravel()).max() <= bound
    assert average.shape == (N, N)
    assert np.abs(average.ravel() - orbit_matrix.mean(axis=0)).max() <= bound
    assert np.abs(average - symmetrizer(act, X)).max() <= bound


def test_dft_mixing_kernel_on_a_table_built_group():
    N = 8
    group = group_from_table(cyclic_group(N).table)
    assert group is not cyclic_group(N)
    act = dft_action(N, group)
    X = np.random.default_rng(34).standard_normal((N, N)).astype(np.complex128)
    orbit_matrix = act.orbit_matrix(X)
    mix, _ = act.mixer(X)
    for _, p in dft_weight_vectors(N, np.random.default_rng(35)):
        assert np.abs(mix(p) - p @ orbit_matrix).max() <= dft_kernel_round_off(N, X)


def test_dft_residual_makes_no_per_element_apply_call(monkeypatch):
    act = dft_action(16)
    calls = []
    inner_apply = act._apply

    def counting_apply(g, x):
        calls.append(g)
        return inner_apply(g, x)

    monkeypatch.setattr(act, "_apply", counting_apply)
    X = np.random.default_rng(33).standard_normal((16, 16)).astype(np.complex128)
    assert fixed_point_residual(act, X) > 0.0
    assert calls == []
    orbit_block_residual(act, X)  # the generic path still goes element by element
    assert calls == list(range(16))


def dft_step_rows(N):
    """Signal rows over k in {0, 1, N-1}: single maps, a mixture and zero-weight padding."""
    rows = [([k], [1.0]) for k in (0, 1, N - 1)]
    rows.append(([0, 1, N - 1, 0, 0], [0.25, 0.5, 0.25, 0.0, 0.0]))
    rows.append(([N - 1, 0, 0], [0.6, 0.4, 0.0]))
    return [(np.array(idx, dtype=np.intp), np.array(w)) for idx, w in rows]


@pytest.mark.parametrize("N", [2, 3, 8, 17])
@pytest.mark.parametrize("table_built", [False, True])
def test_dft_step_kernel_is_bit_equal_to_the_apply_sum(N, table_built):
    # the term-by-term slice-multiply step the tests keep as the direct
    # state's oracle, against the base class kernel and the public step
    group = group_from_table(cyclic_group(N).table) if table_built else cyclic_group(N)
    act = dft_action(N, group)
    rng = np.random.default_rng(36 + N)
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    # signed zeros, whose sign a different order of operations would flip
    X.flat[: min(3, X.size)] = [0.0, complex(-0.0, 1.0), complex(-0.0, -0.0)][: X.size]
    for idx, w in dft_step_rows(N):
        # the base class kernel: one apply (np.roll times the phases) per term
        expected = LinearAction._step(act, idx, w, X, np.empty_like(X))
        out = np.full_like(X, np.nan)
        assert dft_direct_step(idx, w, X, out) is out
        assert out.tobytes() == expected.tobytes()
        assert step(act, idx, w, X).tobytes() == expected.tobytes()


def test_dft_step_allocates_less_than_a_state_after_warm_up():
    # a dft run's step multiplies its N-vector M_t by the step's multiplier:
    # a length-N scatter and ifft, nothing of the N x N state's size
    N = 128
    act = dft_action(N)
    rng = np.random.default_rng(37)
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    run = act.direct_run(X)
    idx, w = dft_step_rows(N)[3]
    tracemalloc.start()
    try:
        run.step(idx, w)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run.step(idx, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < X.nbytes // 16
    direct = dft_direct_step(idx, w, X, np.empty_like(X))
    direct = dft_direct_step(idx, w, direct, np.empty_like(X))
    assert np.abs(run.state() - direct).max() <= dft_kernel_round_off(N, X)


def test_dft_kernels_sharing_one_buffer_match_their_unbuffered_forms():
    N = 16
    act = dft_action(N)
    rng = np.random.default_rng(39)
    X0 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    Y0 = np.fft.fft(X0, axis=0)

    def residual(X):
        Y = np.fft.fft(X, axis=0).view(np.float64).reshape(-1, 2)
        power = np.einsum("ij,ij->i", Y, Y)
        energy = power[act._diagonals].sum(axis=1)
        return math.sqrt(float(np.einsum("kd,d->k", act._gains, energy).max()))

    def mixture(p):
        W = (N * np.fft.ifft(p))[act._shifts]
        W *= Y0
        return np.fft.ifft(W, axis=0).reshape(-1)

    mix, _ = act.mixer(X0)
    X = X0
    for idx, w in dft_step_rows(N):
        p = rng.dirichlet(np.ones(N))
        assert mix(p).tobytes() == mixture(p).tobytes()
        X = step(act, idx, w, X)
        assert fixed_point_residual(act, X) == residual(X)
    assert act._buffer() is act._buffer()


@pytest.mark.parametrize("N", [1, 2, 7, 64, 256])
def test_dft_residual_power_is_the_einsum_power_bit_for_bit(N):
    act = dft_action(N)
    rng = np.random.default_rng(41 + N)
    scale = 10.0 ** rng.integers(-100, 100, size=(N, N))
    X = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) * scale
    for state in (X, np.outer(rng.standard_normal(N), np.ones(N)).astype(complex)):
        Y = np.fft.fft(state, axis=0).view(np.float64).reshape(-1, 2)
        power = np.einsum("ij,ij->i", Y, Y)
        energy = power[act._diagonals].sum(axis=1)
        expect = math.sqrt(float(np.einsum("kd,d->k", act._gains, energy).max()))
        assert fixed_point_residual(act, state) == expect


@pytest.mark.parametrize("kind", ["block", "dft", "custom"])
def test_step_writes_into_a_separate_out(kind):
    act, x = action_kinds()[kind]
    idx, w = np.array([0, 1], dtype=np.intp), np.array([0.3, 0.7])
    expected = step(act, idx, w, x)
    out = np.empty_like(expected)
    assert step(act, idx, w, x, out=out) is out
    assert out.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="overlap"):
        step(act, idx, w, out, out=out)
    with pytest.raises(ValueError, match="shape"):
        step(act, idx, w, x, out=np.empty(out.size + 1, out.dtype))
    with pytest.raises(ValueError, match="shape"):
        step(act, idx, w, x, out=np.empty(out.shape, np.float32))


def test_residual_keeps_a_nan():
    # Python's max(0.0, nan) is 0.0, which would report a NaN state as fixed
    for act in (permutation_action(3, 1), regular_action(symmetric_group(3))):
        x = np.arange(float(act.space.dim))
        x[1] = np.nan
        assert math.isnan(fixed_point_residual(act, x))


# -- conjugation validation ----------------------------------------------------


def test_conjugation_rejects_non_unitary():
    z2 = cyclic_group(2)
    mats = np.array([np.eye(2), [[1.0, 1.0], [0.0, -1.0]]], dtype=np.complex128)
    with pytest.raises(ValueError, match="not unitary"):
        conjugation_action(z2, mats)


def test_conjugation_rejects_non_homomorphism():
    z2 = cyclic_group(2)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    rot = np.array(
        [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
    )
    mats = np.array([h, rot], dtype=np.complex128)
    with pytest.raises(ValueError, match="projective homomorphism"):
        conjugation_action(z2, mats)


def test_conjugation_accepts_projective_phases():
    # X Z = -i Y: products match the Klein table only up to phase, which
    # conjugation cannot see.
    group, U = pauli_unitaries()
    act = conjugation_action(group, U)
    prod = U[1] @ U[3]
    target = U[group.mul(1, 3)]
    assert np.abs(prod - target).max() > 0.5
    assert np.abs(prod - (-1j) * target).max() < 1e-15
    X = np.diag([1.0 + 0j, -1.0])
    assert np.abs(act.apply(1, act.apply(3, X)) - act.apply(group.mul(1, 3), X)).max() < 1e-12


# -- subsystem permutation unitaries -------------------------------------------


def test_subsystem_unitaries_are_genuine_homomorphism():
    g3 = symmetric_group(3)
    U = subsystem_permutation_unitaries(g3, 2)
    assert U.shape == (6, 8, 8)
    for g in range(6):
        for h in range(6):
            assert np.abs(U[g] @ U[h] - U[g3.mul(g, h)]).max() < 1e-12


def test_subsystem_unitaries_permute_local_operators():
    g2 = symmetric_group(2)
    U = subsystem_permutation_unitaries(g2, 2)
    rng = np.random.default_rng(22)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    swapped = U[1] @ np.kron(A, B) @ U[1].conj().T
    assert np.abs(swapped - np.kron(B, A)).max() < 1e-12


def test_subsystem_unitaries_basis_routing():
    # |i1 i2> -> |i2 i1> for the swap, spelled out on the 4x4 swap matrix
    g2 = symmetric_group(2)
    U = subsystem_permutation_unitaries(g2, 2)
    oracle = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=np.complex128,
    )
    assert np.array_equal(U[1], oracle)
    assert np.array_equal(U[0], np.eye(4, dtype=np.complex128))


@pytest.mark.parametrize("m, local_dim", [(1, 3), (2, 3), (3, 2), (4, 2), (5, 2), (3, 4)])
def test_subsystem_unitaries_match_the_digit_by_digit_definition(m, local_dim):
    # V_pi |i_1 .. i_m> = |j_1 .. j_m> with j_k = i_{pi^-1(k)}, one basis state at a time
    group = symmetric_group(m)
    U = subsystem_permutation_unitaries(group, local_dim)
    rank = lambda digits: int(np.ravel_multi_index(digits, (local_dim,) * m))
    for g in group.elements():
        pinv = group.perms[group.inverses[g]]
        oracle = np.zeros_like(U[g])
        for i in itertools.product(range(local_dim), repeat=m):
            oracle[rank(tuple(i[p] for p in pinv)), rank(i)] = 1.0
        assert np.array_equal(U[g], oracle)


def test_subsystem_unitaries_feed_conjugation_action():
    g3 = symmetric_group(3)
    U = subsystem_permutation_unitaries(g3, 2)
    act = conjugation_action(g3, U)
    assert act.space.shape == (8, 8)


# -- subsystem permutations as a gather ----------------------------------------


def subsystem_cases():
    """(m, local_dim) for S1-S4 at local dimensions 2 and 3 within the dense cap."""
    return [(m, d) for m in range(1, 5) for d in (2, 3) if d**m <= 64]


def random_states(dim, rng):
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return {"complex": X, "hermitian": X + X.conj().T}


EPS = np.finfo(np.float64).eps


def orbit_sum_round_off(act, x):
    """Float round-off bound on |F(x) - orbit_walk_symmetrizer(act, x)|, entrywise.

    Both are means of terms at most max|x| in size, each summed in its own
    order: the walk's of |G| terms, the orbit-label mean's of |orbit| <= |G|
    terms.  A recursive sum of n such terms is off by at most
    (n - 1) (eps/2) n max|x|, so a mean by at most n (eps/2) max|x| with
    its division's rounding.  Two means then differ by at most |G| eps
    max|x| in each real part, and a complex entry by sqrt(2) times that,
    which twice |G| eps max|x| covers.
    """
    return 2 * act.group.order * EPS * np.abs(x).max()


def residual_round_off(x, residual):
    """Float round-off bound on |fixed_point_residual - orbit_walk_residual|.

    A squared distance sums n <= 2 x.size nonnegative squares, and a
    permutation action's g and g^-1 square the same entries of
    a(g, x) - x (up to sign) in another order.  Each sum is within
    n eps/2 of the exact one relatively, so two orders within n eps, and
    their square roots, and so the maxima over g, within n eps of the
    residual.
    """
    return 2 * np.asarray(x).size * EPS * residual


def assert_bit_equal_actions(act, reference, x):
    """Every map, orbit block and orbit matrix of act is byte-equal to reference's.

    The symmetrizer and the residual are compared with the orbit walks over
    every element within their round-off bounds: a permutation action
    averages over coordinate orbits and walks one element of each
    {g, g^-1} pair.
    """
    for g in act.group.elements():
        assert act.apply(g, x).tobytes() == reference.apply(g, x).tobytes()
    blocks, ref_blocks = list(act.orbit_blocks(x)), list(reference.orbit_blocks(x))
    assert [start for start, _ in blocks] == [start for start, _ in ref_blocks]
    for (_, block), (_, ref_block) in zip(blocks, ref_blocks):
        assert block.tobytes() == ref_block.tobytes()
    assert act.orbit_matrix(x).tobytes() == reference.orbit_matrix(x).tobytes()
    average = orbit_walk_symmetrizer(reference, x)
    assert np.abs(symmetrizer(act, x) - average).max() <= orbit_sum_round_off(act, x)
    residual = orbit_walk_residual(reference, x)
    assert abs(fixed_point_residual(act, x) - residual) <= residual_round_off(x, residual)


@pytest.mark.parametrize("m, local_dim", subsystem_cases())
def test_subsystem_gather_is_bit_equal_to_unitary_conjugation(m, local_dim):
    group = symmetric_group(m)
    gather = subsystem_permutation_action(group, local_dim)
    dense = conjugation_action(group, subsystem_permutation_unitaries(group, local_dim))
    assert gather.name == dense.name
    assert gather.space == dense.space
    rng = np.random.default_rng(100 * m + local_dim)
    for X in random_states(local_dim**m, rng).values():
        assert_bit_equal_actions(gather, dense, X)


def test_subsystem_gather_action_axioms_exhaustive():
    g3 = symmetric_group(3)
    act = subsystem_permutation_action(g3, 2)
    assert np.array_equal(act.adjoint_map, g3.inverses)
    rng = np.random.default_rng(12)
    X = random_states(8, rng)["complex"]
    Y = random_states(8, rng)["complex"]
    assert np.array_equal(act.apply(g3.identity, X), X)
    for h in range(6):
        for g in range(6):
            lhs = act.apply(h, act.apply(g, X))
            assert np.array_equal(lhs, act.apply(g3.mul(h, g), X))
        # <a(h, Y), X> = <Y, a(adjoint_map[h], X)>
        lhs = inner(act.apply(h, Y), X)
        rhs = inner(Y, act.apply(act.adjoint_map[h], X))
        assert abs(lhs - rhs) < 1e-12


def test_subsystem_gather_on_s6_ranks_no_products_and_matches_the_unitaries(monkeypatch):
    monkeypatch.setattr(groups_module, "_MEMO", weakref.WeakValueDictionary())
    group = symmetric_group(6)
    act = subsystem_permutation_action(group, 2)
    # no pair check: the build ranks no product row and reads no Cayley table
    assert group._rows_built == 0 and group._table is None
    U = subsystem_permutation_unitaries(group, 2)
    X = random_states(64, np.random.default_rng(6))["hermitian"]
    for g in np.random.default_rng(7).choice(group.order, size=12, replace=False):
        assert np.array_equal(act.apply(int(g), X), U[g] @ X @ U[g].conj().T)


def test_subsystem_gather_rejects_a_group_without_permutations():
    with pytest.raises(ValueError, match="permutation data"):
        subsystem_permutation_action(group_from_table([[0]]), 2)


# -- pauli helpers --------------------------------------------------------------


def test_pauli_matrices_algebra():
    I, X, Y, Z = pauli_matrices()
    assert np.abs(X @ X - I).max() < 1e-15
    assert np.abs(X @ Y - 1j * Z).max() < 1e-15
    assert np.abs(Z @ X - 1j * Y).max() < 1e-15


def test_pauli_quotient_group_structure():
    group = pauli_quotient_group()
    assert group.element_name(0) == "I"
    assert group.mul(1, 3) == 2  # X * Z = Y up to phase
    for g in range(4):
        assert group.inv(g) == g


# -- bounds ---------------------------------------------------------------------


def test_restricted_bound_is_one_for_unitary_action():
    g3 = symmetric_group(3)
    act = permutation_action(3, 2, g3)
    rng = np.random.default_rng(23)
    x0 = rng.standard_normal(6)
    b = restricted_operator_bound(act, x0)
    assert abs(b - 1.0) < 1e-10


def test_restricted_bound_exceeds_one_for_skew_action():
    z2 = cyclic_group(2)
    M = np.array([[1.0, 1.0], [0.0, -1.0]])
    mats = [np.eye(2), M]
    act = LinearAction(z2, VectorSpace((2,)), lambda g, x: mats[g] @ x)
    b = restricted_operator_bound(act, np.array([1.0, 1.0]))
    assert b > 1.0
    assert b <= np.linalg.norm(M, ord=2) + 1e-12


# -- state serialization ---------------------------------------------------------


def test_state_roundtrip_real(tmp_path):
    x = np.array([[1.5, -2.25], [0.0, 3.0]])
    path = tmp_path / "state.json"
    save_state(path, x)
    back = load_state(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, x)


def test_state_roundtrip_complex(tmp_path):
    rng = np.random.default_rng(24)
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    path = tmp_path / "state.json"
    save_state(path, x)
    back = load_state(path)
    assert back.dtype == np.complex128
    assert np.abs(back - x).max() < 1e-15


def test_encode_state_structure():
    payload = encode_state(np.array([1.0 + 2.0j, -3.0j]))
    assert payload["shape"] == [2]
    assert payload["complex"] is True
    assert payload["data"] == [[1.0, 2.0], [0.0, -3.0]]


def recursive_encode(arr):
    """The original element-recursive encoder of complex entries."""
    if np.iscomplexobj(arr):
        if arr.ndim == 0:
            return [float(arr.real), float(arr.imag)]
        return [recursive_encode(sub) for sub in arr]
    return arr.tolist()


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 1, 3), (0,), (3, 0), (0, 2, 2)])
def test_encode_state_matches_the_recursive_encoder(shape):
    rng = np.random.default_rng(34)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert json.dumps(encode_state(arr)["data"]) == json.dumps(recursive_encode(arr))


def test_decode_state_errors():
    with pytest.raises(ValueError, match="missing"):
        decode_state({"shape": [2], "data": [1.0, 2.0]})
    with pytest.raises(ValueError, match="shape"):
        decode_state({"shape": [3], "complex": False, "data": [1.0, 2.0]})
    with pytest.raises(ValueError, match="JSON object"):
        decode_state([1.0, 2.0])


def json_round_trip(arr):
    return decode_state(json.loads(json.dumps(encode_state(arr))))


def big_complex(shape, seed=44):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize(
    "arr",
    [
        np.array(2.5),
        np.array(1.0 - 2.0j),
        np.zeros((0,)),
        np.zeros((3, 0), dtype=np.complex128),
        np.zeros((0, 40, 40)),
        np.asfortranarray(big_complex((9, 11))),
        big_complex((20, 30))[::2, 1::3],
        np.random.default_rng(45).standard_normal((12, 12))[:, ::-1].T,
        big_complex((80,)).astype(">c16"),
        np.arange(100.0).astype(">f8"),
        np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324] * 20),
    ],
    ids=[
        "0d-real", "0d-complex", "empty", "empty-complex-2d", "empty-3d", "fortran",
        "strided", "reversed-transposed", "big-endian-c16", "big-endian-f8", "specials",
    ],
)
def test_state_round_trip_is_exact(arr):
    back = json_round_trip(arr)
    assert back.shape == arr.shape
    assert back.dtype == (np.complex128 if np.iscomplexobj(arr) else np.float64)
    assert back.flags.writeable
    assert np.array_equal(back, arr, equal_nan=True)
    assert np.array_equal(np.signbit(back.real), np.signbit(arr.real))


def test_large_float_arrays_use_the_binary_form():
    arr = big_complex((actions_module.INLINE_ARRAY_MAX + 1,))
    payload = encode_state(arr)
    assert set(payload) == {"shape", "dtype", "base64"}
    assert payload["dtype"] == "<c16"
    assert base64.b64decode(payload["base64"]) == arr.astype("<c16").tobytes()
    assert encode_state(arr.real)["dtype"] == "<f8"
    # at the threshold the list form stays
    assert "data" in encode_state(arr[: actions_module.INLINE_ARRAY_MAX])


@pytest.mark.parametrize(
    "arr", [np.arange(200), np.arange(200) % 3 == 0, np.arange(200, dtype=np.float32)]
)
def test_other_dtypes_keep_the_list_form(arr):
    payload = encode_state(arr)
    assert payload["complex"] is False
    assert payload["data"] == arr.tolist()
    assert np.array_equal(decode_state(payload), arr)


def test_list_form_state_file_still_loads(tmp_path):
    x = big_complex((10, 10))
    path = tmp_path / "state.json"
    path.write_text(
        json.dumps(
            {
                "shape": [10, 10],
                "complex": True,
                "data": np.stack([x.real, x.imag], axis=-1).tolist(),
            }
        )
    )
    assert np.array_equal(load_state(path), x)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda p: p.update(base64="!!not base64!!"), "base64 is malformed"),
        (lambda p: p.update(base64=p["base64"][:-3]), "base64 is malformed"),
        (lambda p: p.update(base64=p["base64"][:-4]), "798 bytes, expected 800"),
        (lambda p: p.update(base64=12), "base64 is malformed"),
        (lambda p: p.update(shape=[101]), "800 bytes, expected 808"),
        (lambda p: p.update(dtype="<f4"), "dtype must be one of"),
        (lambda p: p.update(dtype=">f8"), "dtype must be one of"),
        (lambda p: p.update(shape=[-100]), "nonnegative integers"),
        (lambda p: p.update(shape=[100.0]), "nonnegative integers"),
        (lambda p: p.update(shape=[True] * 100), "nonnegative integers"),
        (lambda p: p.update(shape="100"), "nonnegative integers"),
        (lambda p: p.pop("dtype"), r"missing keys: \['dtype'\]"),
    ],
)
def test_decode_state_rejects_malformed_binary_payloads(corrupt, match):
    payload = encode_state(np.arange(100.0))
    corrupt(payload)
    with pytest.raises(ValueError, match=match):
        decode_state(payload)


def test_vector_space_validation():
    space = VectorSpace((2, 2))
    with pytest.raises(ValueError, match="shape"):
        space.validate(np.zeros(3))
    with pytest.raises(ValueError, match="complex"):
        space.validate(np.zeros((2, 2), dtype=np.complex128))
    assert VectorSpace((2, 2), complex=True).dim == 4


def test_step_rejects_mismatched_group():
    act = permutation_action(3, 1, symmetric_group(3))
    s = ConvexWeights.uniform(cyclic_group(6))
    # the run checks the signal's group once, at its entry
    with pytest.raises(ValueError, match="different groups"):
        run_symmetrization(act, np.zeros(3), [s], 1)


def test_apply_rejects_out_of_range_element():
    act = permutation_action(2, 1, symmetric_group(2))
    with pytest.raises(ValueError, match="out of range"):
        act.apply(5, np.zeros(2))


def test_run_lifted_weights_match_repeated_steps_on_regular_action():
    group = cyclic_group(5)
    act = regular_action(group)
    rng = np.random.default_rng(25)
    base = ConvexWeights(rng.dirichlet(np.ones(5)), group)
    signal = [base] * 9
    traj = run_lifted(ConvexWeights.point_mass(group), signal, 9)
    v = np.zeros(5)
    v[group.identity] = 1.0
    for t, s in enumerate(signal):
        v = step(act, *row(s), v)
        assert np.abs(traj[t + 1].weights - v).max() < 1e-12


# -- orbit blocks ------------------------------------------------------------------


def action_kinds():
    """(action, state) for each bundled action kind plus a custom apply_fn."""
    rng = np.random.default_rng(13)
    s3, s4 = symmetric_group(3), symmetric_group(4)
    herm = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    mats = [np.eye(2), np.array([[1.0, 1.0], [0.0, -1.0]])]
    return {
        "block": (permutation_action(4, 3, s4), rng.standard_normal(12)),
        "axis": (axis_permutation_action(3, 2, s3), rng.standard_normal((2, 2, 2))),
        "regular": (regular_action(s4), rng.standard_normal(24)),
        "dft": (
            dft_action(6),
            rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),
        ),
        "conjugation": (
            conjugation_action(s3, subsystem_permutation_unitaries(s3, 2)),
            herm + herm.conj().T,
        ),
        "subsystem": (subsystem_permutation_action(s3, 2), herm + herm.conj().T),
        "custom": (
            LinearAction(cyclic_group(2), VectorSpace((2,)), lambda g, x: mats[g] @ x),
            rng.standard_normal(2),
        ),
    }


def stacked_orbit(act, x):
    return np.stack([act.apply(g, x).ravel() for g in range(act.group.order)])


# 4096 bytes splits the test orbits into blocks of a few elements; 64 bytes
# into single elements
@pytest.mark.parametrize("budget", [actions_module.BLOCK_BYTES, 4096, 64])
@pytest.mark.parametrize("kind", sorted(action_kinds()))
def test_orbit_blocks_match_stacked_apply(kind, budget, monkeypatch):
    monkeypatch.setattr(actions_module, "BLOCK_BYTES", budget)
    act, x = action_kinds()[kind]
    expected = stacked_orbit(act, x)
    blocks = list(act.orbit_blocks(x))
    assert [start for start, _ in blocks] == list(
        np.cumsum([0] + [b.shape[0] for _, b in blocks[:-1]])
    )
    got = np.concatenate([b for _, b in blocks])
    assert np.array_equal(got, expected)
    assert np.array_equal(act.orbit_matrix(x), got)


def test_orbit_block_size_follows_the_byte_budget(monkeypatch):
    act = permutation_action(5, 2)
    x = np.arange(10.0)
    assert [b.shape for _, b in act.orbit_blocks(x)] == [(120, 10)]
    # images take a quarter of the budget, the kernel's temporaries the rest
    monkeypatch.setattr(actions_module, "BLOCK_BYTES", 4 * 50 * x.nbytes)
    assert [b.shape[0] for _, b in act.orbit_blocks(x)] == [50, 50, 20]
    # a state of a quarter of the budget or more goes one element per block
    monkeypatch.setattr(actions_module, "BLOCK_BYTES", 4 * x.nbytes)
    assert {b.shape for _, b in act.orbit_blocks(x)} == {(1, 10)}


@pytest.mark.parametrize("budget", [actions_module.BLOCK_BYTES, 4096, 64])
@pytest.mark.parametrize("kind", sorted(action_kinds()))
def test_batched_residual_and_symmetrizer_match_per_element_loop(kind, budget, monkeypatch):
    monkeypatch.setattr(actions_module, "BLOCK_BYTES", budget)
    act, x = action_kinds()[kind]
    loop_residual = max(
        float(np.linalg.norm(act.apply(g, x) - x)) for g in range(act.group.order)
    )
    assert fixed_point_residual(act, x) == pytest.approx(loop_residual, rel=1e-12, abs=0)
    orbit = act.orbit(x)
    loop_average = sum(orbit[1:], start=orbit[0]) / act.group.order
    assert np.allclose(symmetrizer(act, x), loop_average, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("budget", [actions_module.BLOCK_BYTES, 4096, 64])
@pytest.mark.parametrize("kind", sorted(action_kinds()))
def test_workspace_walks_equal_the_unbuffered_ones(kind, budget, monkeypatch):
    monkeypatch.setattr(actions_module, "BLOCK_BYTES", budget)
    act, x = action_kinds()[kind]
    residual, average = orbit_walk_residual(act, x), orbit_walk_symmetrizer(act, x)
    # twice: the second call reuses the first call's workspace
    for _ in range(2):
        assert abs(fixed_point_residual(act, x) - residual) <= residual_round_off(x, residual)
        assert np.abs(symmetrizer(act, x) - average).max() <= orbit_sum_round_off(act, x)
        if kind in ("conjugation", "custom"):
            # the base-class walks sum in the oracles' order
            assert fixed_point_residual(act, x) == residual
            assert symmetrizer(act, x).tobytes() == average.tobytes()
    # the walks leave the state alone
    assert np.array_equal(x, action_kinds()[kind][1])


def test_workspace_follows_the_block_budget(monkeypatch):
    act = permutation_action(5, 2)
    x = np.arange(10.0)
    expected = orbit_walk_residual(act, x), orbit_walk_symmetrizer(act, x)
    for budget in (actions_module.BLOCK_BYTES, 4 * 50 * x.nbytes, 4 * x.nbytes):
        monkeypatch.setattr(actions_module, "BLOCK_BYTES", budget)
        assert abs(fixed_point_residual(act, x) - expected[0]) <= residual_round_off(
            x, expected[0]
        )
        assert np.abs(symmetrizer(act, x) - expected[1]).max() <= orbit_sum_round_off(act, x)
        # one block of the residual's walk over 73 of S5's 120 elements, at
        # most the whole walk
        rows = min(73, budget // (4 * x.nbytes))
        assert act._work.shape == (rows, x.size)


def test_orbit_walks_allocate_no_block_after_the_first_call():
    act = subsystem_permutation_action(symmetric_group(5), 2)
    rng = np.random.default_rng(17)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    x = a + a.conj().T
    block_bytes = next(act.orbit_blocks(x))[1].nbytes
    assert block_bytes >= 8 * x.nbytes  # blocks of several elements
    expected = orbit_walk_residual(act, x), orbit_walk_symmetrizer(act, x)
    for walk in (fixed_point_residual, symmetrizer):
        tracemalloc.start()
        try:
            walk(act, x)  # allocates the workspace
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            value = walk(act, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < block_bytes, walk.__name__
    assert abs(fixed_point_residual(act, x) - expected[0]) <= residual_round_off(x, expected[0])
    assert np.abs(symmetrizer(act, x) - expected[1]).max() <= orbit_sum_round_off(act, x)


@pytest.mark.parametrize("kind", sorted(action_kinds()))
def test_block_takes_an_index_array(kind):
    act, x = action_kinds()[kind]
    x = act.space.validate(x)
    # out of order and repeated, as a walk over chosen elements may pass them
    elements = np.array([act.group.order - 1, 0, 1, act.group.order - 1])
    out = np.empty((len(elements), x.size), x.dtype)
    assert act._block(elements, x, out) is out
    orbit = act.orbit_matrix(x)
    assert out.tobytes() == orbit[elements].tobytes()
    # a shorter array after a longer one
    assert act._block(elements[1:3], x, out[:2]).tobytes() == orbit[elements[1:3]].tobytes()


def test_residual_allocates_no_iterator_buffer():
    # subtracting the state broadcast over a block had numpy's ufunc
    # iterator buffer it: 8192 elements, 128 KB of complex128 (8 states), per call
    act = subsystem_permutation_action(symmetric_group(5), 2)
    rng = np.random.default_rng(19)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    x = a + a.conj().T
    tracemalloc.start()
    try:
        fixed_point_residual(act, x)  # allocates the buffers kept on the action
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fixed_point_residual(act, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < x.nbytes


def two_transpositions_group():
    """<(0 2), (1 3)> in S4, permutation-backed: the blocks fall into the
    orbits {0, 2} and {1, 3}, whose least blocks are adjacent."""
    perms = np.array([[0, 1, 2, 3], [0, 3, 2, 1], [2, 1, 0, 3], [2, 3, 0, 1]])
    return groups_module.FiniteGroup(perms=perms, validate=False)


def orbit_label_cases():
    """name -> a permutation action whose coordinate orbits are not all alike."""
    s3, s4 = symmetric_group(3), symmetric_group(4)
    return {
        "block-S4": permutation_action(4, 3, s4),
        "block-two-orbits": permutation_action(4, 2, two_transpositions_group()),
        "axis-S3": axis_permutation_action(3, 3, s3),
        "regular-S4": regular_action(s4),
        "regular-Z7": regular_action(cyclic_group(7)),
        # S3's table relabelled back to front, so the identity is element 5
        "regular-relabeled": regular_action(group_from_table(5 - s3.table[::-1, ::-1])),
        "subsystem-S3": subsystem_permutation_action(s3, 2),
    }


def brute_force_orbits(act):
    """Each flat coordinate's orbit: where the maps send its basis vector, over every g."""
    dtype = np.complex128 if act.space.complex else np.float64
    orbits = []
    for i in range(act.space.dim):
        e = np.zeros(act.space.dim, dtype)
        e[i] = 1.0
        images = [act.apply(g, e.reshape(act.space.shape)) for g in act.group.elements()]
        orbits.append(frozenset(int(np.flatnonzero(image)[0]) for image in images))
    return orbits


@pytest.mark.parametrize("name", sorted(orbit_label_cases()))
def test_orbit_labels_are_the_brute_force_orbit_partition(name):
    act = orbit_label_cases()[name]
    symmetrizer(act, np.zeros(act.space.shape))  # labels the orbits
    labels, sizes = act._orbits
    orbits = brute_force_orbits(act)
    assert np.array_equal(
        np.equal.outer(labels, labels), [[a == b for b in orbits] for a in orbits]
    )
    assert sizes.tolist() == [len(orbit) for orbit in orbits]
    if name == "block-two-orbits":
        assert len(set(orbits)) == 4  # two block orbits, two entries per block


@pytest.mark.parametrize("name", sorted(orbit_label_cases()))
def test_orbit_label_average_is_fixed_by_every_map(name):
    act = orbit_label_cases()[name]
    rng = np.random.default_rng(20)
    x = rng.standard_normal(act.space.shape)
    if act.space.complex:
        x = x + 1j * rng.standard_normal(act.space.shape)
    average = symmetrizer(act, x)
    for g in act.group.elements():
        assert act.apply(g, average).tobytes() == average.tobytes()
    assert np.abs(average - orbit_walk_symmetrizer(act, x)).max() <= orbit_sum_round_off(act, x)


@pytest.mark.parametrize(
    "group, walked",
    [
        (pauli_quotient_group(), 4),  # every element is its own inverse
        (cyclic_group(7), 4),  # 0, and one of each {k, 7 - k}
        (group_from_table(5 - symmetric_group(3).table[::-1, ::-1]), 5),
        (symmetric_group(5), 73),
        (symmetric_group(7), 2636),
    ],
)
def test_residual_walks_one_element_of_each_inverse_pair(group, walked):
    if group.perms is None:
        act = regular_action(group)
    else:
        act = permutation_action(group.perms.shape[1], 2, group)
    x = np.random.default_rng(21).standard_normal(act.space.shape)
    residual = fixed_point_residual(act, x)
    pairs = set(act._pairs.tolist())
    assert len(pairs) == walked
    for g in group.elements():
        assert len({g, int(group.inverses[g])} & pairs) == 1
    expected = orbit_walk_residual(act, x)
    assert abs(residual - expected) <= residual_round_off(x, expected)


def test_a_nan_state_gives_a_non_finite_residual_and_average():
    group = symmetric_group(3)
    act = subsystem_permutation_action(group, 2)
    X = np.eye(8, dtype=np.complex128)
    X[1, 2] = np.nan
    assert math.isnan(fixed_point_residual(act, X))
    average = symmetrizer(act, X)
    # the NaN's whole orbit, and nothing else
    orbit = {(int(i), int(j)) for i, j in zip(*np.nonzero(~np.isfinite(average)))}
    assert (1, 2) in orbit and len(orbit) == 6
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvalsh(average)  # what the average_spectrum monitor computes

    # a NaN produced mid-run: the engine names its step
    step_kernel, calls = act._step, []

    def nan_on_third_step(idx, w, x, out):
        calls.append(None)
        step_kernel(idx, w, x, out)
        if len(calls) == 3:
            out[1, 2] = np.nan
        return out

    act._step = nan_on_third_step
    schedule = CyclicSchedule(group, [transposition_index(group, 0, 1)], 0.5)
    with pytest.raises(ValueError, match="step 3: non-finite fixed-point residual"):
        run_symmetrization(
            act, np.diag(np.arange(8.0)).astype(np.complex128), schedule, 10,
            monitors={"average_spectrum": lambda X: np.linalg.eigvalsh(symmetrizer(act, X))},
        )


def test_orbit_blocks_stay_independent_arrays():
    act = subsystem_permutation_action(symmetric_group(5), 2)
    x = np.arange(1024.0).reshape(32, 32) + 0j
    fixed_point_residual(act, x)  # the walks' workspace exists
    blocks = list(act.orbit_blocks(x))
    assert len(blocks) > 1
    assert not any(
        np.shares_memory(a, b) for (_, a), (_, b) in itertools.combinations(blocks, 2)
    )
    assert not any(np.shares_memory(block, act._work) for _, block in blocks)
    assert np.array_equal(np.concatenate([b for _, b in blocks]), act.orbit_matrix(x))


@pytest.mark.parametrize("kind", sorted(action_kinds()))
def test_a_dropped_action_is_freed_without_the_garbage_collector(kind):
    # a map that referenced its own action would keep the action, its
    # tables and its block buffer alive in a cycle until a collection
    act, x = action_kinds()[kind]
    fixed_point_residual(act, x)
    act.mixer(x)
    ref = weakref.ref(act)
    gc.disable()
    try:
        del act
        assert ref() is None
    finally:
        gc.enable()


def test_orbit_matrix_gathers_into_its_own_rows():
    act = subsystem_permutation_action(symmetric_group(5), 2)
    rng = np.random.default_rng(18)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    x = a + a.conj().T
    block_bytes = next(act.orbit_blocks(x))[1].nbytes
    assert block_bytes >= 8 * x.nbytes  # blocks of several elements
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        matrix = act.orbit_matrix(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the matrix itself, and no block gathered beside it
    assert peak - start < matrix.nbytes + block_bytes
    assert np.array_equal(matrix, stacked_orbit(act, x))


# -- relabeling gathers against the implementations they replaced ---------------


def relabeling_references(tmp_path):
    """name -> (action, reference, states) for the gathers and Pauli conjugation.

    Each reference builds the same maps the way the action once did: an axis
    transpose, a block reshape, a Cayley-table row read, and, for conjugation,
    orbit blocks as one batched matrix product.  Relabeling cases run on S1-S4;
    the regular action also on a cyclic group and a table loaded from JSON.
    """
    rng = np.random.default_rng(41)
    cases = {}

    def reference(act, apply_fn):
        return LinearAction(act.group, act.space, apply_fn)

    def add_regular(name, group):
        table, inv = group.table, group.inverses
        act = regular_action(group)
        ref = reference(act, lambda h, v: v[table[inv[h]]])
        cases[name] = (act, ref, [rng.standard_normal(group.order)])

    for m in range(1, 5):
        group = symmetric_group(m)
        inverse_perms = group.perms[group.inverses]
        act = permutation_action(m, 2, group)
        ref = reference(act, lambda g, x, m=m, p=inverse_perms: x.reshape(m, 2)[p[g]].ravel())
        cases[f"block-S{m}"] = (act, ref, [rng.standard_normal(2 * m)])
        act = axis_permutation_action(m, 3, group)
        ref = reference(
            act,
            lambda g, x, p=inverse_perms: np.ascontiguousarray(np.transpose(x, axes=p[g])),
        )
        cases[f"axis-S{m}"] = (act, ref, [rng.standard_normal((3,) * m)])
        add_regular(f"regular-S{m}", group)
    add_regular("regular-Z7", cyclic_group(7))
    # S3's table relabelled back to front, so the identity is element 5
    table = 5 - symmetric_group(3).table[::-1, ::-1]
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"order": 6, "table": table.tolist()}))
    add_regular("regular-json", group_from_json(path))

    group, U = pauli_unitaries()
    act = conjugation_action(group, U)

    class BatchedConjugation(LinearAction):
        def _block(self, gs, X, out):
            out[:] = np.matmul(U[gs] @ X, U[gs].conj().transpose(0, 2, 1)).reshape(-1, 4)
            return out

    ref = BatchedConjugation(act.group, act.space, lambda g, X: U[g] @ X @ U[g].conj().T)
    cases["pauli"] = (act, ref, list(random_states(2, rng).values()))
    return cases


RELABELING_CASES = [
    f"{kind}-S{m}" for kind in ("block", "axis", "regular") for m in range(1, 5)
] + ["regular-Z7", "regular-json", "pauli"]


# 64 bytes puts every element in its own block, so gathers start mid-table
@pytest.mark.parametrize("budget", [actions_module.BLOCK_BYTES, 64])
@pytest.mark.parametrize("name", RELABELING_CASES)
def test_actions_are_bit_equal_to_their_reference_implementations(
    name, budget, tmp_path, monkeypatch
):
    monkeypatch.setattr(actions_module, "BLOCK_BYTES", budget)
    act, reference, states = relabeling_references(tmp_path)[name]
    for x in states:
        assert_bit_equal_actions(act, reference, x)
