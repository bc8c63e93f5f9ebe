"""Tests for switching-signal schedules."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import groupsym.lifted as lifted_module
from groupsym.groups import cyclic_group, group_from_table, symmetric_group, transposition_index
from groupsym.lifted import (
    ConvexWeights,
    check_mixing,
    find_mixing_certificate,
    run_lifted,
)
from groupsym.schedules import (
    RNG_ALGORITHM,
    CyclicSchedule,
    DDBisectionSchedule,
    ExplicitSchedule,
    RandomGossipSchedule,
    RandomSubsetSchedule,
    frame_histogram,
    schedule_from_csv,
)
from groupsym.actions import pauli_quotient_group


def s3_transpositions():
    g3 = symmetric_group(3)
    return g3, [
        transposition_index(g3, 0, 1),
        transposition_index(g3, 1, 2),
        transposition_index(g3, 0, 2),
    ]


# -- cyclic ---------------------------------------------------------------------


def test_cyclic_single_element_is_constant():
    z4 = cyclic_group(4)
    sched = CyclicSchedule(z4, [1], 0.5)
    signal = sched.realize(5)
    assert len(signal) == 5
    for s in signal:
        assert np.array_equal(s.weights, [0.5, 0.5, 0.0, 0.0])


def test_cyclic_period_three():
    g3, trs = s3_transpositions()
    sched = CyclicSchedule(g3, trs, 0.5)
    signal = sched.realize(7)
    for t, s in enumerate(signal):
        expected = np.zeros(6)
        expected[g3.identity] = 0.5
        expected[trs[t % 3]] = 0.5
        assert np.array_equal(s.weights, expected)


def test_cyclic_identity_element_accumulates():
    z4 = cyclic_group(4)
    sched = CyclicSchedule(z4, [0], 0.3)
    (s,) = sched.realize(1)
    assert np.array_equal(s.weights, [1.0, 0.0, 0.0, 0.0])


def test_cyclic_validation():
    z4 = cyclic_group(4)
    with pytest.raises(ValueError, match="nonempty"):
        CyclicSchedule(z4, [], 0.5)
    with pytest.raises(ValueError, match="out of range"):
        CyclicSchedule(z4, [7], 0.5)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError, match="alpha"):
            CyclicSchedule(z4, [1], bad)
    assert len(CyclicSchedule(z4, [1], 0.5).realize(0)) == 0


def test_cyclic_support_and_describe():
    g3, trs = s3_transpositions()
    sched = CyclicSchedule(g3, trs, 0.5)
    assert sched.union_support() == frozenset(trs) | {g3.identity}
    assert sched.support_generates()
    desc = sched.describe()
    assert desc["kind"] == "cyclic"
    assert desc["alpha"] == 0.5
    json.dumps(desc)


def test_cyclic_s3_certifies_with_window_three():
    g3, trs = s3_transpositions()
    sched = CyclicSchedule(g3, trs, 0.5)
    signal = sched.realize(12)
    cert = find_mixing_certificate(signal, max_T=6)
    assert cert.satisfied
    assert cert.T == 3
    assert cert.delta == pytest.approx(0.125, abs=0)


def test_cyclic_z4_generator_certifies():
    z4 = cyclic_group(4)
    signal = CyclicSchedule(z4, [1], 0.5).realize(10)
    cert = find_mixing_certificate(signal, max_T=6)
    assert cert.satisfied
    assert cert.T == 3
    assert cert.delta == pytest.approx(0.125, abs=0)


# -- random gossip ----------------------------------------------------------------


def test_random_gossip_same_seed_identical():
    g3, trs = s3_transpositions()
    a = RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=42).realize(40)
    b = RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=42).realize(40)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.weights, sb.weights)


def test_random_gossip_prefix_consistent():
    g3, trs = s3_transpositions()
    sched = RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=9)
    long = sched.realize(50)
    short = sched.realize(20)
    for sa, sb in zip(short, long[:20]):
        assert np.array_equal(sa.weights, sb.weights)


def test_random_gossip_emissions_are_two_point_in_range():
    g3, trs = s3_transpositions()
    sched = RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=5)
    for s in sched.realize(60):
        support = s.support()
        assert g3.identity in support
        others = [g for g in support if g != g3.identity]
        assert len(others) == 1
        assert others[0] in trs
        alpha = s.weights[others[0]]
        assert 0.3 <= alpha <= 0.7
        assert s.weights[g3.identity] == pytest.approx(1.0 - alpha, abs=1e-15)


def test_random_gossip_different_seeds_differ():
    g3, trs = s3_transpositions()
    a = RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=1).realize(20)
    b = RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=2).realize(20)
    assert any(not np.array_equal(sa.weights, sb.weights) for sa, sb in zip(a, b))


def test_random_gossip_validation():
    g3, trs = s3_transpositions()
    with pytest.raises(ValueError, match="nonempty"):
        RandomGossipSchedule(g3, [], (0.3, 0.7), seed=1)
    with pytest.raises(ValueError, match="alpha_range"):
        RandomGossipSchedule(g3, trs, (0.5, 0.5), seed=1)
    with pytest.raises(ValueError, match="alpha_range"):
        RandomGossipSchedule(g3, trs, (0.0, 0.7), seed=1)
    with pytest.raises(ValueError, match="alpha_range"):
        RandomGossipSchedule(g3, trs, (0.3, 1.0), seed=1)
    with pytest.raises(ValueError, match="seed"):
        RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=None)
    with pytest.raises(ValueError, match="seed"):
        RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=True)
    with pytest.raises(ValueError, match="seed"):
        RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=-4)


def test_random_gossip_over_generating_set_certifies():
    g3, trs = s3_transpositions()
    sched = RandomGossipSchedule(g3, trs[:2], (0.3, 0.7), seed=11)
    assert sched.support_generates()
    cert = find_mixing_certificate(sched.realize(200), max_T=12, delta_floor=1e-6)
    assert cert.satisfied


def test_random_gossip_describe_records_rng():
    g3, trs = s3_transpositions()
    desc = RandomGossipSchedule(g3, trs, (0.3, 0.7), seed=3).describe()
    assert desc["rng"] == RNG_ALGORITHM == "pcg64"
    assert desc["seed"] == 3
    json.dumps(desc)


# -- random subset ----------------------------------------------------------------


def test_random_subset_same_seed_identical_and_prefix_consistent():
    g3, trs = s3_transpositions()
    sched = RandomSubsetSchedule(g3, trs, (0.3, 0.7), seed=21)
    again = RandomSubsetSchedule(g3, trs, (0.3, 0.7), seed=21)
    long = sched.realize(30)
    for sa, sb in zip(long, again.realize(30)):
        assert np.array_equal(sa.weights, sb.weights)
    for sa, sb in zip(sched.realize(10), long[:10]):
        assert np.array_equal(sa.weights, sb.weights)


def test_random_subset_emissions_structure():
    g3, trs = s3_transpositions()
    sched = RandomSubsetSchedule(g3, trs, (0.3, 0.7), seed=8)
    seen_sizes = set()
    for s in sched.realize(80):
        support = list(s.support())
        others = [g for g in support if g != g3.identity]
        assert set(others) <= set(trs)
        seen_sizes.add(len(others))
        alpha = 1.0 - s.weights[g3.identity]
        assert 0.3 <= alpha <= 0.7 + 1e-15
        # alpha split evenly across the drawn subset
        shares = s.weights[others]
        assert np.abs(shares - alpha / len(others)).max() < 1e-12
    assert seen_sizes == {1, 2, 3}


def test_random_subset_certifies_over_generators():
    g3, trs = s3_transpositions()
    sched = RandomSubsetSchedule(g3, trs[:2], (0.3, 0.7), seed=2)
    cert = find_mixing_certificate(sched.realize(200), max_T=12, delta_floor=1e-6)
    assert cert.satisfied


# -- dd bisection -----------------------------------------------------------------


def test_dd_one_bisection_frames_and_weights():
    pauli = pauli_quotient_group()
    sched = DDBisectionSchedule(pauli, [1, 3])  # cycle X, Z
    assert sched.expand_frames(0) == [0]
    assert sched.expand_frames(1) == [0, 1]
    traj = run_lifted(ConvexWeights.point_mass(pauli), sched.realize(1), 1)
    assert np.array_equal(traj[1].weights, [0.5, 0.5, 0.0, 0.0])


def test_dd_two_bisections_frame_order():
    pauli = pauli_quotient_group()
    sched = DDBisectionSchedule(pauli, [1, 3])
    # e, X, then Z times the block: Z, ZX = Y
    assert sched.expand_frames(2) == [0, 1, 3, 2]


def test_dd_frame_histogram_equals_weights_exactly():
    pauli = pauli_quotient_group()
    sched = DDBisectionSchedule(pauli, [1, 3])
    for n in range(1, 7):
        frames = sched.expand_frames(n)
        assert len(frames) == 2**n
        hist = frame_histogram(pauli, frames)
        traj = run_lifted(ConvexWeights.point_mass(pauli), sched.realize(n), n)
        assert np.array_equal(hist, traj[n].weights)


def test_dd_two_steps_reach_uniform_exactly():
    pauli = pauli_quotient_group()
    sched = DDBisectionSchedule(pauli, [1, 3])
    signal = sched.realize(2)
    cert = check_mixing(signal, 0, 2, 2, 0.2)
    assert cert.satisfied
    full = find_mixing_certificate(sched.realize(4), max_T=4)
    assert full.T == 2
    assert full.delta == pytest.approx(0.25, abs=0)
    traj = run_lifted(ConvexWeights.point_mass(pauli), signal, 2)
    assert np.array_equal(traj[2].weights, [0.25, 0.25, 0.25, 0.25])


def test_dd_callable_chooser_matches_cycle():
    pauli = pauli_quotient_group()
    cycle = DDBisectionSchedule(pauli, [1, 3])
    fn = DDBisectionSchedule(pauli, lambda n: [1, 3][n % 2])
    assert fn.chosen(6) == cycle.chosen(6)
    assert fn.expand_frames(3) == cycle.expand_frames(3)
    assert fn.union_support() == cycle.union_support()
    for sa, sb in zip(fn.realize(4), cycle.realize(4)):
        assert np.array_equal(sa.weights, sb.weights)


def test_dd_alpha_generalizes_split():
    pauli = pauli_quotient_group()
    sched = DDBisectionSchedule(pauli, [1, 3], alpha=0.25)
    (s0,) = sched.realize(1)
    assert np.array_equal(s0.weights, [0.75, 0.25, 0.0, 0.0])


def test_dd_non_generating_chooser_warns():
    pauli = pauli_quotient_group()
    with pytest.warns(UserWarning, match="does not generate"):
        sched = DDBisectionSchedule(pauli, [1])  # closure {I, X} only
    assert sched.warning is not None
    assert not sched.support_generates()
    cert = find_mixing_certificate(sched.realize(16), max_T=16)
    assert not cert.satisfied


def test_dd_describe():
    pauli = pauli_quotient_group()
    desc = DDBisectionSchedule(pauli, [1, 3]).describe()
    assert desc["kind"] == "dd-bisection"
    assert desc["chooser"] == [1, 3]
    json.dumps(desc)


def test_dd_chooser_validation():
    pauli = pauli_quotient_group()
    with pytest.raises(ValueError, match="nonempty"):
        DDBisectionSchedule(pauli, [])
    with pytest.raises(ValueError, match="out of range"):
        DDBisectionSchedule(pauli, [9])
    bad = DDBisectionSchedule(pauli, lambda n: 17)
    with pytest.raises(ValueError, match="out-of-range"):
        bad.chosen(1)


# -- explicit ---------------------------------------------------------------------


def test_explicit_replays_and_truncates():
    z2 = cyclic_group(2)
    seq = [[0.7, 0.3], [0.2, 0.8]]
    sched = ExplicitSchedule(z2, seq)
    out = sched.realize(2)
    assert np.array_equal(out[0].weights, [0.7, 0.3])
    assert np.array_equal(out[1].weights, [0.2, 0.8])
    assert len(sched.realize(1)) == 1
    with pytest.raises(ValueError, match="length 2"):
        sched.realize(3)


def test_explicit_cycle_policy():
    z2 = cyclic_group(2)
    sched = ExplicitSchedule(z2, [[0.7, 0.3], [0.2, 0.8]], policy="cycle")
    out = sched.realize(5)
    assert np.array_equal(out[4].weights, [0.7, 0.3])
    with pytest.raises(ValueError, match="policy"):
        ExplicitSchedule(z2, [], policy="loop")


def test_explicit_empty_with_zero_steps():
    z2 = cyclic_group(2)
    sched = ExplicitSchedule(z2, [])
    assert len(sched.realize(0)) == 0
    with pytest.raises(ValueError, match="empty"):
        sched.realize(1)
    assert sched.union_support() == frozenset()
    assert not sched.support_generates()


def test_explicit_invalid_entry_names_index():
    z2 = cyclic_group(2)
    with pytest.raises(ValueError, match="index 1"):
        ExplicitSchedule(z2, [[0.5, 0.5], [0.9, 0.3]])
    g3 = symmetric_group(3)
    with pytest.raises(ValueError, match="index 0"):
        ExplicitSchedule(z2, [ConvexWeights.uniform(g3)])


def test_explicit_accepts_convex_weights_objects():
    z2 = cyclic_group(2)
    s = ConvexWeights(np.array([0.6, 0.4]), z2)
    sched = ExplicitSchedule(z2, [s])
    assert np.array_equal(sched.realize(1)[0].weights, s.weights)
    assert sched.union_support() == frozenset({0, 1})


def test_subgroup_trap_never_certifies():
    z6 = cyclic_group(6)
    even = np.array([0.4, 0.0, 0.3, 0.0, 0.3, 0.0])
    sched = ExplicitSchedule(z6, [even], policy="cycle")
    assert not sched.support_generates()
    signal = sched.realize(30)
    for T in (1, 6, 24):
        cert = check_mixing(signal, 0, len(signal), T, 1e-9)
        assert not cert.satisfied
        assert cert.witness[1] % 2 == 1


def test_window_with_generating_step_certifies():
    # every length-3 window contains one step spreading weight over a
    # generating set plus the identity; three such windows cover the group
    g3, trs = s3_transpositions()
    u = np.zeros(6)
    u[[g3.identity, trs[0], trs[1]]] = 1.0 / 3.0
    idle = np.zeros(6)
    idle[g3.identity] = 1.0
    sched = ExplicitSchedule(g3, [u, idle, idle], policy="cycle")
    signal = sched.realize(27)
    cert = find_mixing_certificate(signal, max_T=12, delta_floor=1e-6)
    assert cert.satisfied
    assert cert.delta >= (1.0 / 3.0) ** 3 - 1e-12


# -- csv loading ------------------------------------------------------------------


def test_schedule_from_csv_roundtrip(tmp_path):
    z4 = cyclic_group(4)
    path = tmp_path / "signal.csv"
    path.write_text("0.5,0.5,0,0\n0.25,0.25,0.25,0.25\n")
    sched = schedule_from_csv(path, z4)
    out = sched.realize(2)
    assert np.array_equal(out[0].weights, [0.5, 0.5, 0.0, 0.0])
    assert np.array_equal(out[1].weights, [0.25, 0.25, 0.25, 0.25])


def test_schedule_from_csv_with_header(tmp_path):
    z2 = cyclic_group(2)
    path = tmp_path / "signal.csv"
    path.write_text("g0,g1\n0.7,0.3\n")
    sched = schedule_from_csv(path, z2)
    assert np.array_equal(sched.realize(1)[0].weights, [0.7, 0.3])


def test_schedule_from_csv_bad_rows(tmp_path):
    z2 = cyclic_group(2)
    short = tmp_path / "short.csv"
    short.write_text("0.7,0.3\n0.5\n")
    with pytest.raises(ValueError, match="row 1"):
        schedule_from_csv(short, z2)
    badhdr = tmp_path / "badhdr.csv"
    badhdr.write_text("g0,g1,g2\n")
    with pytest.raises(ValueError, match="header"):
        schedule_from_csv(badhdr, z2)
    invalid = tmp_path / "invalid.csv"
    invalid.write_text("0.9,0.3\n")
    with pytest.raises(ValueError, match="index 0"):
        schedule_from_csv(invalid, z2)


# -- frame histogram -----------------------------------------------------------


def test_frame_histogram_counts():
    z4 = cyclic_group(4)
    hist = frame_histogram(z4, [0, 0, 1, 2])
    assert np.array_equal(hist, [0.5, 0.25, 0.25, 0.0])
    with pytest.raises(ValueError, match="nonempty"):
        frame_histogram(z4, [])
    with pytest.raises(ValueError, match="out of range"):
        frame_histogram(z4, [0, 9])


def test_negative_steps_rejected():
    z4 = cyclic_group(4)
    with pytest.raises(ValueError, match=">= 0"):
        CyclicSchedule(z4, [1], 0.5).realize(-1)


# -- realized streams --------------------------------------------------------------


def relabeled_z5():
    """Z5 with its elements permuted so that the identity is element 3."""
    sigma = np.array([3, 0, 4, 1, 2])
    table = np.empty((5, 5), dtype=int)
    for a in range(5):
        for b in range(5):
            table[sigma[a], sigma[b]] = sigma[(a + b) % 5]
    return group_from_table(table)


def stream_schedules():
    """(schedule, steps) of every kind, with the identity inside and outside the support."""
    s3, s4, z5 = symmetric_group(3), symmetric_group(4), relabeled_z5()
    pauli = pauli_quotient_group()
    rng = np.random.default_rng(17)
    rows = rng.dirichlet(np.ones(6), size=9)
    rows[::2, 1] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    return {
        "cyclic-with-identity": (CyclicSchedule(s3, [1, 0, 4], 0.35), 150),
        "cyclic-relabeled": (CyclicSchedule(z5, [1, 3, 2], 0.6), 150),
        "gossip-s4": (RandomGossipSchedule(s4, range(1, 24, 5), (0.3, 0.7), 3), 150),
        "gossip-with-identity": (RandomGossipSchedule(z5, [0, 3, 4], (0.2, 0.8), 9), 150),
        "subset-s4": (RandomSubsetSchedule(s4, range(1, 24), (0.3, 0.9), 4), 150),
        "subset-with-identity": (RandomSubsetSchedule(s4, range(0, 24, 3), (0.1, 0.9), 8), 150),
        "subset-relabeled": (RandomSubsetSchedule(z5, [0, 1, 2, 3, 4], (0.2, 0.8), 5), 150),
        "dd-list": (DDBisectionSchedule(pauli, [1, 3, 2], 0.25), 150),
        "dd-callable": (DDBisectionSchedule(pauli, lambda n: (n * n + n // 3) % 4, 0.5), 150),
        "explicit-truncate": (ExplicitSchedule(s3, list(rows), "truncate"), 9),
        "explicit-cycle": (ExplicitSchedule(s3, list(rows), "cycle"), 150),
    }


# sha256 of the stacked float64 weight vectors of realize(steps), as the
# per-step ConvexWeights schedules wrote them before signals became arrays.
STREAM_SHA256 = {
    "cyclic-with-identity": "de3e27895ec21eda8740c8a7bf6b064dd6947f4af24358ee4cf51f4a866b7af9",
    "cyclic-relabeled": "d17181f26c297c1d92255decf8c624991100eca94c91a570b61e9f991996d73c",
    "gossip-s4": "b2ec143e74e39579db765c7a2657ce4ad531b94f2f20bed61a7cef392e938130",
    "gossip-with-identity": "e158e5982f0d9cba922ed5ee90859a4d23e7757a34bee3542a0f6588d15e1990",
    "subset-s4": "f98d8066b47991831b92aaa9068d87355742bf48d355eed0a7224f7740fb50c7",
    "subset-with-identity": "2167df156b8a0715535ff849bc05182a0858412600a4871e3b02dfeb4e4c99d7",
    "subset-relabeled": "f6efd7dd7b6678577794673906a52757b022eb51e2e8365898c02b49cb4c11ec",
    "dd-list": "131b31e4876b21c629813e59ad9740cf0705c00220794c967bdd3d3f3860be62",
    "dd-callable": "eb7602732ca4a68036a4b0286946174a0803e95042911d59261a33ba34afeb4a",
    "explicit-truncate": "ea8a36fa458e2f2c2f5fe61c680b33f989aefb4eb9430084e30f505143e9419f",
    "explicit-cycle": "aeec2a38a2d729041a810bdec641cd48b0c8c753d4f9c993120243f621bfd775",
}


def stream_digest(weights):
    return hashlib.sha256(np.ascontiguousarray(weights, dtype="<f8").tobytes()).hexdigest()


def dense_rows(signal):
    """The (steps, |G|) weights of a Signal, read from its arrays alone."""
    dense = np.zeros((len(signal), signal.group.order))
    steps = np.repeat(np.arange(len(signal)), signal.idx.shape[1])
    np.add.at(dense, (steps, signal.idx.ravel()), signal.w.ravel())  # padding adds zeros
    return dense


@pytest.mark.parametrize("name", sorted(STREAM_SHA256))
def test_realized_stream_matches_its_pin(name):
    schedule, steps = stream_schedules()[name]
    signal = schedule.realize(steps)
    assert len(signal) == steps
    assert stream_digest([signal[t].weights for t in range(steps)]) == STREAM_SHA256[name]
    assert stream_digest(dense_rows(schedule.realize(steps))) == STREAM_SHA256[name]
    # each row: the support in increasing element order, then identity padding
    e = schedule.group.identity
    for idx, w in zip(signal.idx, signal.w):
        n = np.count_nonzero(w)
        assert (w[:n] > 0).all() and (np.diff(idx[:n]) > 0).all()
        assert (idx[n:] == e).all() and (w[n:] == 0.0).all()


@pytest.mark.parametrize("name", sorted(STREAM_SHA256))
def test_realized_prefixes_survive_any_chunk(name, monkeypatch):
    schedule, steps = stream_schedules()[name]
    full = schedule.realize(steps)
    reference = (full.idx.copy(), full.w.copy())
    for chunk in (1, 2, 3):
        monkeypatch.setattr(lifted_module, "SIGNAL_CHUNK", chunk)
        for n in (0, 1, chunk + 1, steps // 2, steps):
            signal = schedule.realize(n)
            # row by row, so each chunk is drawn when the read first crosses into it
            for t in range(n):
                idx, w = signal.rows(t, t + 1)
                assert np.array_equal(idx[0], reference[0][t]), (chunk, n, t)
                assert np.array_equal(w[0], reference[1][t]), (chunk, n, t)


def test_signal_reads_are_read_only_views():
    schedule, steps = stream_schedules()["gossip-s4"]
    signal = schedule.realize(steps)
    idx, w = signal.rows(3, 9)
    for array in (idx, w, signal.idx, signal.w):
        with pytest.raises(ValueError):
            array[0] = 0
    part = signal[10:20]
    assert len(part) == 10
    assert np.array_equal(part.w, signal.w[10:20])
    assert np.array_equal(signal[-1].weights, signal[steps - 1].weights)
    with pytest.raises(IndexError):
        signal[steps]
