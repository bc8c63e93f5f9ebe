"""Harness: artifact output, reproducibility, and artifact-only verification."""

from __future__ import annotations

import hashlib
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import groupsym.applications as applications_module
import groupsym.config as config_module
import groupsym.groups as groups_module
import groupsym.harness as harness_module
import groupsym.lifted as lifted_module
from groupsym.actions import (
    Base64State,
    decode_state,
    dft_action,
    encode_state,
    pauli_matrices,
    pauli_quotient_group,
    save_state,
)
from groupsym.applications import (
    SAMPLING_BETA,
    lift_roundoff,
    run_dynamical_decoupling,
    sampling_tolerance,
)
from groupsym.cli import main
from groupsym.config import ConfigError, config_hash, parse_config, serialize_config
from groupsym.groups import symmetric_group, transposition_index
from groupsym.harness import (
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_RUNTIME,
    VERIFY_CHECKS,
    HarnessError,
    _substream,
    certify_run,
    execute,
    run_from_config,
    spectral_run,
    verify,
)
from groupsym.lifted import read_trajectory_csv
from groupsym.schedules import Schedule
from oracles import dft_direct_step


def gossip_config(**extra):
    doc = {"schema_version": 1, "application": "gossip", "seed": 7, "steps": 300}
    doc.update(extra)
    return parse_config(doc)


def run_dir(tmp_path, name="art"):
    return str(tmp_path / name)


class TestExecute:
    def test_writes_all_four_artifacts(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        names = sorted(os.listdir(art.directory))
        assert names == ["config.json", "manifest.json", "result.json", "trajectory.csv"]
        assert art.exit_code == EXIT_OK
        assert art.result.converged

    def test_manifest_records_provenance(self, tmp_path):
        cfg = gossip_config()
        art = execute(cfg, out_dir=run_dir(tmp_path))
        with open(os.path.join(art.directory, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["rng"] == "pcg64"
        assert manifest["seed"] == 7
        assert manifest["config_sha256"] == config_hash(cfg)
        assert manifest["tool"] == "groupsym"
        assert manifest["application"] == "gossip"

    def test_result_floats_round_trip_exactly(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        with open(os.path.join(art.directory, "result.json")) as fh:
            doc = json.load(fh)
        assert doc["residuals"] == [float(v) for v in art.result.residuals]
        assert doc["lift_direct_gap"] == float(art.result.lift_direct_gap)
        final = decode_state(doc["final_state"])
        assert np.array_equal(final, art.result.final_state)

    def test_trajectory_csv_round_trips_exactly(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        weights, lyap, kl = read_trajectory_csv(
            os.path.join(art.directory, "trajectory.csv")
        )
        stacked = np.array([w for w in art.result.weights_trajectory])
        assert np.array_equal(weights, stacked)
        assert np.array_equal(lyap, np.asarray(art.result.lyapunov))
        assert np.array_equal(kl, np.asarray(art.result.kl))

    def test_same_seed_byte_identical_csv(self, tmp_path):
        a = execute(gossip_config(), out_dir=run_dir(tmp_path, "a"))
        b = execute(gossip_config(), out_dir=run_dir(tmp_path, "b"))
        bytes_a = open(os.path.join(a.directory, "trajectory.csv"), "rb").read()
        bytes_b = open(os.path.join(b.directory, "trajectory.csv"), "rb").read()
        assert bytes_a == bytes_b

    def test_different_seed_differs(self, tmp_path):
        a = execute(gossip_config(seed=7), out_dir=run_dir(tmp_path, "a"))
        b = execute(gossip_config(seed=8), out_dir=run_dir(tmp_path, "b"))
        bytes_a = open(os.path.join(a.directory, "trajectory.csv"), "rb").read()
        bytes_b = open(os.path.join(b.directory, "trajectory.csv"), "rb").read()
        assert bytes_a != bytes_b

    def test_config_copy_reparses_to_same_config(self, tmp_path):
        cfg = gossip_config(steps=120)
        art = execute(cfg, out_dir=run_dir(tmp_path))
        again = parse_config(os.path.join(art.directory, "config.json"))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_confined_support_never_converges(self, tmp_path):
        cfg = gossip_config(params={"m": 3, "edges": [[0, 1]]}, steps=120)
        art = execute(cfg, out_dir=run_dir(tmp_path))
        assert art.exit_code == EXIT_NOT_CONVERGED
        assert not art.result.converged
        assert art.result.certificate is not None
        assert not art.result.certificate.satisfied

    def test_semantic_value_error_becomes_config_error(self, tmp_path):
        cfg = gossip_config(
            initial_state={"source": "inline", "data": [1.0, 2.0]}
        )
        with pytest.raises(ConfigError, match="gossip"):
            execute(cfg, out_dir=run_dir(tmp_path))

    def test_unwritable_directory_is_a_harness_error(self, tmp_path):
        cfg = gossip_config(steps=20)
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(HarnessError) as caught:
            execute(cfg, out_dir=str(blocker))
        assert caught.value.module == "harness"
        config_path = tmp_path / "config.json"
        config_path.write_text(serialize_config(cfg))
        assert main(["run", str(config_path), "--out", str(blocker)]) == EXIT_RUNTIME

    def test_runner_failure_is_a_harness_error_naming_the_application(self, monkeypatch, tmp_path):
        def failing(*args, **kwargs):
            raise RuntimeError("runner broke")

        monkeypatch.setattr(applications_module, "run_gossip_consensus", failing)
        with pytest.raises(HarnessError, match=r"\[gossip\] runner broke") as caught:
            execute(gossip_config(steps=20), out_dir=run_dir(tmp_path))
        assert caught.value.module == "gossip"

    def test_output_dir_from_config_and_env(self, tmp_path, monkeypatch):
        out = tmp_path / "from-config"
        cfg = gossip_config(output=str(out), steps=60)
        art = execute(cfg)
        assert art.directory == str(out)
        monkeypatch.setenv("GROUPSYM_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg2 = gossip_config(steps=60)
        art2 = execute(cfg2)
        assert art2.directory.startswith(str(tmp_path / "root"))
        assert config_hash(cfg2)[:8] in art2.directory

    def test_substream_determinism(self):
        assert _substream(7, 0) == _substream(7, 0)
        assert _substream(7, 0) != _substream(7, 1)
        assert _substream(7, 0) != _substream(8, 0)


class TestInitialStates:
    def test_state_file_feeds_the_run(self, tmp_path):
        x0 = np.array([5.0, 1.0, 0.0])
        path = tmp_path / "x0.json"
        save_state(path, x0)
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "gossip",
                "schedule": {"kind": "cyclic", "elements": [[0, 1], [1, 2]]},
                "initial_state": {"source": "file", "path": "x0.json"},
                "steps": 400,
            },
            base_dir=str(tmp_path),
        )
        art = execute(cfg, out_dir=run_dir(tmp_path))
        assert art.result.converged
        # barycenter of [5, 1, 0] is 2; the final state reaches it
        assert np.abs(art.result.final_state - 2.0).max() < 1e-6

    def test_inline_encoded_state(self, tmp_path):
        payload = {
            "shape": [4],
            "complex": True,
            "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        }
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "dft",
                "params": {"N": 4},
                "schedule": {"kind": "cyclic", "elements": [1, 2, 3]},
                "initial_state": {"source": "inline", "data": payload},
                "steps": 400,
            }
        )
        art = execute(cfg, out_dir=run_dir(tmp_path))
        # impulse spreads to the flat spectrum 1/N on every bin
        assert np.abs(art.result.final_state[0] - 0.25).max() < 1e-6

    def test_edge_pairs_match_transposition_indices(self, tmp_path):
        group = symmetric_group(3)
        idx = transposition_index(group, 0, 1)
        by_edge = parse_config(
            {
                "schema_version": 1,
                "application": "gossip",
                "schedule": {"kind": "cyclic", "elements": [[0, 1]]},
                "initial_state": {"source": "inline", "data": [1.0, 2.0, 3.0]},
                "steps": 50,
            }
        )
        by_index = parse_config(
            {
                "schema_version": 1,
                "application": "gossip",
                "schedule": {"kind": "cyclic", "elements": [idx]},
                "initial_state": {"source": "inline", "data": [1.0, 2.0, 3.0]},
                "steps": 50,
            }
        )
        a = execute(by_edge, out_dir=run_dir(tmp_path, "a"))
        b = execute(by_index, out_dir=run_dir(tmp_path, "b"))
        bytes_a = open(os.path.join(a.directory, "trajectory.csv"), "rb").read()
        bytes_b = open(os.path.join(b.directory, "trajectory.csv"), "rb").read()
        assert bytes_a == bytes_b


class TestVerify:
    def test_fresh_artifacts_pass_every_check(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        report = verify(art.directory)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert set(by_name) == set(VERIFY_CHECKS)
        for name in ("artifacts", "weights", "lyapunov", "kl", "envelope", "lift"):
            assert by_name[name].status == "pass", by_name[name].line()

    def test_corrupted_lyapunov_fails_at_step_index(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        csv_path = os.path.join(art.directory, "trajectory.csv")
        lines = open(csv_path).read().splitlines(keepends=True)
        fields = lines[4].rstrip("\n").split(",")
        fields[-2] = "0.5"
        lines[4] = ",".join(fields) + "\n"
        open(csv_path, "w").writelines(lines)
        report = verify(art.directory)
        assert not report.passed
        lyap = next(c for c in report.checks if c.name == "lyapunov")
        assert lyap.status == "fail"
        assert "step 3" in lyap.detail

    def test_corrupted_weight_fails_weights_check(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        csv_path = os.path.join(art.directory, "trajectory.csv")
        lines = open(csv_path).read().splitlines(keepends=True)
        fields = lines[6].rstrip("\n").split(",")
        fields[1] = "0.9"
        lines[6] = ",".join(fields) + "\n"
        open(csv_path, "w").writelines(lines)
        report = verify(art.directory)
        weights = next(c for c in report.checks if c.name == "weights")
        assert weights.status == "fail"
        assert "step 5" in weights.detail

    def test_uncertified_run_skips_envelope_and_kl(self, tmp_path):
        cfg = gossip_config(params={"m": 3, "edges": [[0, 1]]}, steps=60)
        art = execute(cfg, out_dir=run_dir(tmp_path))
        report = verify(art.directory)
        by_name = {c.name: c for c in report.checks}
        assert by_name["envelope"].status == "skip"
        assert "no certificate" in by_name["envelope"].detail
        assert by_name["kl"].status == "skip"
        # everything that can still be checked passes
        assert by_name["weights"].status == "pass"
        assert by_name["lyapunov"].status == "pass"
        assert report.passed

    def test_tampered_config_fails_hash_check(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        cfg_path = os.path.join(art.directory, "config.json")
        doc = json.load(open(cfg_path))
        doc["steps"] = 999999
        json.dump(doc, open(cfg_path, "w"))
        report = verify(art.directory)
        artifacts = next(c for c in report.checks if c.name == "artifacts")
        assert artifacts.status == "fail"
        assert "config_sha256" in artifacts.detail

    @pytest.mark.parametrize("application", [["gossip"], {"name": "gossip"}])
    def test_unhashable_application_fails_artifacts(self, tmp_path, capsys, application):
        # config.json's application is looked up in the application table;
        # a value that cannot be a key still reads as a tampered config
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        cfg_path = os.path.join(art.directory, "config.json")
        doc = json.load(open(cfg_path))
        doc["application"] = application
        json.dump(doc, open(cfg_path, "w"))
        by_name = {c.name: c for c in verify(art.directory).checks}
        assert by_name["artifacts"].status == "fail"
        assert "config_sha256" in by_name["artifacts"].detail
        assert by_name["dft"].status == "skip"
        assert main(["verify", art.directory]) == EXIT_CONFIG
        assert "runtime error" not in capsys.readouterr().err

    def test_missing_artifacts_fail_and_skip_rest(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        os.remove(os.path.join(art.directory, "result.json"))
        report = verify(art.directory)
        assert not report.passed
        artifacts = next(c for c in report.checks if c.name == "artifacts")
        assert artifacts.status == "fail"
        assert "result.json" in artifacts.detail
        assert all(c.status == "skip" for c in report.checks if c.name != "artifacts")

    @pytest.mark.parametrize("keep_header", [False, True])
    def test_trajectory_without_rows_fails_artifacts(self, tmp_path, keep_header):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        csv_path = os.path.join(art.directory, "trajectory.csv")
        header = open(csv_path, newline="").readline()
        with open(csv_path, "w", newline="") as fh:
            fh.write(header if keep_header else "")
        report = verify(art.directory)
        assert not report.passed
        artifacts = next(c for c in report.checks if c.name == "artifacts")
        assert artifacts.status == "fail"
        assert "unreadable" in artifacts.detail
        assert all(c.status == "skip" for c in report.checks if c.name != "artifacts")

    def test_check_subset_selection(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        report = verify(art.directory, ["weights", "lift"])
        assert [c.name for c in report.checks] == ["weights", "lift"]

    def test_missing_artifacts_fail_whatever_the_subset(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        os.remove(os.path.join(art.directory, "result.json"))
        report = verify(art.directory, ["lift", "weights", "lift"])
        assert report.lines() == [
            "FAIL artifacts missing: result.json",
            "SKIP weights skipped: artifacts missing",
            "SKIP lift skipped: artifacts missing",
        ]
        assert not report.passed

    def test_unselected_checks_do_not_run(self, tmp_path, monkeypatch):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))

        def refuse(*args):
            raise AssertionError("envelope_bounds called")

        monkeypatch.setattr(harness_module, "envelope_bounds", refuse)
        with pytest.raises(AssertionError, match="envelope_bounds called"):
            verify(art.directory, ["envelope"])
        report = verify(art.directory, ["lift"])
        assert [(c.name, c.status) for c in report.checks] == [("lift", "pass")]

    def test_unknown_check_name(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        with pytest.raises(ConfigError, match="unknown check 'sparkle'"):
            verify(art.directory, ["sparkle"])

    def test_report_lines_have_one_line_per_check(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        report = verify(art.directory)
        lines = report.lines()
        assert len(lines) == len(VERIFY_CHECKS)
        assert all(line.split()[0] in ("PASS", "FAIL", "SKIP") for line in lines)


class TestAllApplicationsThroughHarness:
    def test_prob_sym_artifacts_verify(self, tmp_path):
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "prob-sym",
                "params": {"m": 2, "outcome_size": 3},
                "seed": 5,
                "steps": 400,
            }
        )
        art = execute(cfg, out_dir=run_dir(tmp_path))
        assert art.exit_code == EXIT_OK
        assert verify(art.directory).passed

    def test_quantum_gossip_artifacts_verify(self, tmp_path):
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "quantum-gossip",
                "params": {"m": 2, "local_dim": 2},
                "seed": 5,
                "steps": 400,
            }
        )
        art = execute(cfg, out_dir=run_dir(tmp_path))
        assert art.exit_code == EXIT_OK
        report = verify(art.directory)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["conserved"].status == "pass"

    def test_dft_artifacts_verify(self, tmp_path):
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "dft",
                "params": {"N": 4},
                "schedule": {"kind": "random-gossip", "support": [1, 2, 3]},
                "seed": 5,
                "steps": 400,
            }
        )
        art = execute(cfg, out_dir=run_dir(tmp_path))
        assert art.exit_code == EXIT_OK
        assert verify(art.directory).passed

    def test_random_state_artifacts_verify(self, tmp_path):
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "random-state",
                "params": {"group": {"kind": "cyclic", "n": 4}},
                "schedule": {"kind": "cyclic", "elements": [1], "alpha": 0.5},
                "seed": 5,
                "steps": 30,
                "trials": 60000,
            }
        )
        art = execute(cfg, out_dir=run_dir(tmp_path))
        assert art.exit_code == EXIT_OK
        report = verify(art.directory)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        # sampling runs carry no mixing certificate; the lift check compares
        # the empirical histogram to the exact law instead
        assert by_name["envelope"].status == "skip"
        assert by_name["lift"].status == "pass"

    def test_dd_artifacts_verify(self, tmp_path):
        cfg = parse_config(
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
            }
        )
        art = execute(cfg, out_dir=run_dir(tmp_path))
        assert art.exit_code == EXIT_OK
        report = verify(art.directory)
        assert report.passed
        with open(os.path.join(art.directory, "result.json")) as fh:
            doc = json.load(fh)
        assert doc["certificate"]["T"] == 2
        assert doc["certificate"]["delta"] == 0.25
        assert doc["extras"]["frames"][:4] == [0, 1, 3, 2]
        assert len(doc["extras"]["frames"]) == 2 ** doc["extras"]["frames_depth"]


class TestCertifyRun:
    def test_gossip_cycle_certifies(self):
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "gossip",
                "schedule": {"kind": "cyclic", "elements": [[0, 1], [1, 2]], "alpha": 0.5},
                "initial_state": {"source": "inline", "data": [1.0, 2.0, 3.0]},
                "steps": 100,
            }
        )
        outcome = certify_run(cfg, 12)
        assert outcome["satisfied"]
        assert outcome["delta"] > 0
        assert outcome["rho"] == 1.0 - 6 * outcome["delta"]

    def test_dd_chooser_certifies_exactly(self):
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "dd",
                "schedule": {"kind": "dd-bisection", "chooser": ["X", "Z"]},
                "initial_state": {
                    "source": "inline",
                    "data": {
                        "shape": [2, 2],
                        "complex": True,
                        "data": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                    },
                },
                "steps": 8,
            }
        )
        outcome = certify_run(cfg, 4)
        assert outcome["satisfied"]
        assert outcome["T"] == 2
        assert outcome["delta"] == 0.25
        assert outcome["rho"] == 0.0

    def test_confined_support_reports_witness(self):
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "gossip",
                "schedule": {"kind": "cyclic", "elements": [[0, 1]], "alpha": 0.5},
                "initial_state": {"source": "inline", "data": [1.0, 2.0, 3.0]},
                "steps": 60,
            }
        )
        outcome = certify_run(cfg, 8)
        assert not outcome["satisfied"]
        assert outcome["witness"] is not None

    def test_horizon_override(self):
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "gossip",
                "schedule": {"kind": "cyclic", "elements": [[0, 1], [1, 2]], "alpha": 0.5},
                "initial_state": {"source": "inline", "data": [1.0, 2.0, 3.0]},
                "steps": 100,
            }
        )
        outcome = certify_run(cfg, 6, horizon=12)
        assert outcome["horizon"] == 12

    def test_run_and_certify_apply_the_same_delta_floor(self, tmp_path):
        # no window puts more than 1/|G| = 0.25 on every element, so a floor
        # of 0.3 admits no certificate, in the run as in certify
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "dd",
                "schedule": {"kind": "dd-bisection", "chooser": [1, 3]},
                "steps": 20,
                "seed": 7,
                "tolerances": {"delta_floor": 0.3},
            }
        )
        recorded = load_result(execute(cfg, out_dir=run_dir(tmp_path)).directory)["certificate"]
        outcome = certify_run(cfg, 16)
        assert not recorded["satisfied"] and not outcome["satisfied"]
        assert recorded == {key: outcome[key] for key in recorded}
        assert not certify_run(cfg, 20)["satisfied"]


class TestOneBuilder:
    CONFIGS = {
        "gossip": {"application": "gossip", "params": {"m": 3}, "steps": 40, "seed": 7},
        "dft": {
            "application": "dft",
            "params": {"N": 8},
            "schedule": {"kind": "random-gossip", "support": list(range(1, 8))},
            "steps": 40,
            "seed": 7,
        },
        "random-state": {
            "application": "random-state",
            "params": {"group": {"kind": "symmetric", "m": 3}},
            "schedule": {"kind": "random-gossip", "support": [1, 2]},
            "steps": 12,
            "trials": 500,
            "seed": 7,
        },
        "dd": {
            "application": "dd",
            "schedule": {"kind": "dd-bisection", "chooser": ["X", "Z"]},
            "steps": 8,
            "seed": 7,
        },
    }

    @staticmethod
    def record_realized(monkeypatch):
        """Wrap every schedule kind's realize; collect each signal as an array."""
        realized = []
        pending = [Schedule]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "realize" not in cls.__dict__:
                continue

            def recording(self, steps, _original=cls.__dict__["realize"]):
                signal = _original(self, steps)
                realized.append(np.array([w.weights for w in signal]))
                return signal

            monkeypatch.setattr(cls, "realize", recording)
        return realized

    @pytest.mark.parametrize("application", sorted(CONFIGS))
    def test_every_verb_realizes_the_same_signal(self, application, monkeypatch):
        cfg = parse_config(dict(self.CONFIGS[application], schema_version=1))
        realized = self.record_realized(monkeypatch)
        run_from_config(cfg)
        assert len(realized) == 1 and realized[0].shape[0] == cfg.steps
        certify_run(cfg, 4)
        assert len(realized) == 2 and realized[1].shape[0] == cfg.steps
        if application == "gossip":
            spectral_run(cfg)
            assert len(realized) == 3 and realized[2].shape[0] == 1
        run_signal = realized[0]
        for other in realized[1:]:
            assert np.array_equal(other, run_signal[: other.shape[0]])

    def test_dd_run_builds_its_schedule_once(self):
        # a chooser that does not generate the group warns once per construction
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "dd",
                "schedule": {"kind": "dd-bisection", "chooser": [1]},
                "steps": 4,
                "seed": 7,
            }
        )
        with pytest.warns(UserWarning) as caught:
            run_from_config(cfg)
        messages = [str(w.message) for w in caught]
        assert sum("does not generate the group" in m for m in messages) == 1


class TestCertificateHorizon:
    """256 weakly mixing S3 steps, then 3000 identity steps.

    The certificate scans the first 256 steps only (T=3).  verify must judge
    kl and envelope on that range, and the lift check must hold whatever the
    residual threshold is.
    """

    @staticmethod
    def config(**tolerances):
        group = symmetric_group(3)
        mix = [0.0] * 6
        mix[group.identity] = 0.98
        mix[transposition_index(group, 0, 1)] = 0.01
        mix[transposition_index(group, 1, 2)] = 0.01
        identity = [0.0] * 6
        identity[group.identity] = 1.0
        rows = [mix] * 256 + [identity] * 3000
        return parse_config(
            {
                "schema_version": 1,
                "application": "gossip",
                "params": {"m": 3},
                "schedule": {"kind": "custom-sequence", "rows": rows},
                "steps": len(rows),
                "seed": 7,
                "tolerances": tolerances,
            }
        )

    def test_verify_judges_only_the_certified_rows(self, tmp_path):
        art = execute(self.config(), out_dir=run_dir(tmp_path))
        assert art.exit_code == EXIT_NOT_CONVERGED
        with open(os.path.join(art.directory, "result.json")) as fh:
            cert = json.load(fh)["certificate"]
        assert (cert["T"], cert["satisfied"], cert["horizon"]) == (3, True, 256)
        report = verify(art.directory)
        by_name = {c.name: c for c in report.checks}
        for name in ("kl", "envelope"):
            assert by_name[name].status == "pass", by_name[name].line()
            assert "steps 0..256" in by_name[name].detail
            assert "3000 later steps not judged" in by_name[name].detail
        assert report.passed

    def test_certificate_without_horizon_is_judged_on_every_row(self, tmp_path):
        art = execute(self.config(), out_dir=run_dir(tmp_path))
        path = os.path.join(art.directory, "result.json")
        with open(path) as fh:
            doc = json.load(fh)
        del doc["certificate"]["horizon"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        kl = next(c for c in verify(art.directory).checks if c.name == "kl")
        assert kl.status == "fail"
        assert "step 256" in kl.detail

    def test_lift_tolerance_does_not_follow_the_residual_threshold(self, tmp_path):
        art = execute(self.config(residual=1e-300), out_dir=run_dir(tmp_path))
        with open(os.path.join(art.directory, "result.json")) as fh:
            doc = json.load(fh)
        assert doc["lift_direct_gap"] > 0
        assert doc["lift_tolerance"] == art.result.lift_tolerance > doc["lift_direct_gap"]
        lift = next(c for c in verify(art.directory).checks if c.name == "lift")
        assert lift.status == "pass", lift.line()


class TestSpectralRun:
    def test_star_signal_reproduces_known_factors(self):
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "gossip",
                "params": {"m": 3, "edges": [[0, 1], [0, 2]]},
                "schedule": {
                    "kind": "custom-sequence",
                    "rows": [[0.1, 0.0, 0.45, 0.0, 0.0, 0.45]],
                },
                "initial_state": {"source": "inline", "data": [1.0, 2.0, 3.0]},
                "steps": 10,
            }
        )
        comp = spectral_run(cfg)
        assert abs(comp["sigma_consensus"] - 0.55) < 1e-10
        assert abs(comp["sigma_lifted"] - 0.80) < 1e-10
        assert not comp["degenerate_consensus"]
        assert comp["sigma_lifted"] > comp["sigma_consensus"]

    def test_only_gossip_configs(self):
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "dft",
                "params": {"N": 4},
                "schedule": {"kind": "cyclic", "elements": [1]},
                "initial_state": {"source": "inline", "data": [1.0, 0.0, 0.0, 0.0]},
            }
        )
        with pytest.raises(ConfigError, match="gossip"):
            spectral_run(cfg)


# -- golden artifacts ----------------------------------------------------------

# Small runs of every application, with the trajectory.csv sha256 and the
# certificate that the per-element engine (one convolve per window step, one
# apply per orbit element) wrote for them.  The batched kernels must
# reproduce these bytes and certificates exactly; ``horizon`` (the steps the
# certificate scanned, min(steps, 256)) was added to the certificates later.
GOLDEN_RUNS = {
    "gossip": (
        {"params": {"m": 3, "n": 2}, "steps": 200, "seed": 7},
        "19b20c410724eda534679535e880daa6f9bb1c4ac4be5bf6bb7f518ba311dce5",
        {"T": 10, "delta": 0.08545330882785694, "satisfied": True, "witness": None, "horizon": 200},
    ),
    "gossip-subset": (
        {
            "application": "gossip",
            "params": {"m": 4, "n": 1},
            "schedule": {"kind": "random-subset"},
            "steps": 150,
            "seed": 11,
        },
        "e600b2f2df1a920ca740307bb9eaad3ea16ea52a17dd964a22c33d0a5dc5bd57",
        {"T": 6, "delta": 0.008767675146936998, "satisfied": True, "witness": None, "horizon": 150},
    ),
    "gossip-cyclic": (
        {
            "application": "gossip",
            "params": {"m": 3, "n": 1},
            "schedule": {"kind": "cyclic", "elements": [[0, 1], [1, 2]], "alpha": 0.4},
            "steps": 120,
            "seed": 5,
        },
        "5c45f608ead5fbcb5c45263c6dd902a08eaa398cd6da1c631356f7e73e9d61b6",
        {"T": 3, "delta": 0.06400000000000002, "satisfied": True, "witness": None, "horizon": 120},
    ),
    "prob-sym": (
        {"params": {"m": 3, "outcome_size": 2}, "steps": 200, "seed": 7},
        "7030298d6a380afa2f450cdc7c0cf4276f8c968157bb0f0ecad9ff193018ae9b",
        {"T": 10, "delta": 0.08545330882785694, "satisfied": True, "witness": None, "horizon": 200},
    ),
    "quantum-gossip": (
        {"params": {"m": 3, "local_dim": 2}, "steps": 200, "seed": 7},
        "6974fa5efa875644562d9347f7d377e6a61e4bd34af8b55d19608dac907977b0",
        {"T": 10, "delta": 0.08545330882785694, "satisfied": True, "witness": None, "horizon": 200},
    ),
    "dft": (
        {
            "params": {"N": 8},
            "schedule": {"kind": "random-gossip", "support": [1, 2, 3, 4, 5, 6, 7]},
            "steps": 300,
            "seed": 7,
        },
        "fc2f06263a4feb548a2e250b47b5b983f2b6837caae932541110c097451f6338",
        {"T": 6, "delta": 0.028764968610429997, "satisfied": True, "witness": None, "horizon": 256},
    ),
    "dft-subgroup": (
        {
            "application": "dft",
            "params": {"N": 8},
            "schedule": {"kind": "random-gossip", "support": [2, 4, 6]},
            "steps": 60,
            "seed": 3,
        },
        "eba30f08840a7822c3e1aeb68140f520beb8f561ef40c34d8ecce6c9a058351b",
        {"T": 32, "delta": 0.0, "satisfied": False, "witness": [0, 1], "horizon": 60},
    ),
    "random-state": (
        {
            "params": {"group": {"kind": "symmetric", "m": 3}},
            "schedule": {"kind": "random-gossip", "support": [1, 2]},
            "steps": 12,
            "trials": 5000,
            "seed": 7,
        },
        "9b5b26f4d1aa6e32a8ecc816bf73e4a3b5694b04a2d4fc2bac82f7ed1e47f6df",
        None,
    ),
    "dd": (
        {"schedule": {"kind": "dd-bisection", "chooser": ["X", "Z"]}, "steps": 8, "seed": 7},
        "22d45d32c10019a64f8b3ae455bc01881d38c68cd204160001f5a9114989ec00",
        {"T": 2, "delta": 0.25, "satisfied": True, "witness": None, "horizon": 8},
    ),
}

# sha256 of the decoded final_state, as little-endian float64, of the sampled
# golden runs.  That is the empirical law, which trajectory.csv (the exact
# law) does not depend on.
GOLDEN_SAMPLED_LAWS = {
    "random-state": "3b140b9465df315f248dfaf78659fac14b53d728cefaac564abda706c8eb68b2",
}


# The verify report of each golden run.
GOLDEN_REPORTS = {
    "dd": [
        "PASS artifacts all files present, config hash matches",
        "PASS weights margin=1.000e-09 9 rows are valid distributions",
        "PASS lyapunov margin=1.000e-12 column consistent and nonincreasing",
        "PASS kl margin=6.931e-01 strict decrease over 2-step windows in steps 0..8",
        "PASS envelope margin=1.000e-12 rho=0, T=2, inside over steps 0..8",
        "PASS conserved margin=1.000e-09 1 monitored quantities held",
        "PASS lift margin=1.387e-13 gap 0.000e+00",
        "PASS consistency series lengths and trajectory agree",
        "SKIP dft skipped: not a dft run",
    ],
    "dft": [
        "PASS artifacts all files present, config hash matches",
        "PASS weights margin=1.000e-09 29 rows are valid distributions",
        "PASS lyapunov margin=1.000e-12 column consistent and nonincreasing",
        "PASS kl margin=2.030e-12 strict decrease over 6-step windows in steps 0..28",
        "PASS envelope margin=1.000e-12 rho=0.76988, T=6, inside over steps 0..28",
        "SKIP conserved skipped: no conserved series recorded",
        "PASS lift margin=4.554e-13 gap 1.535e-15",
        "PASS consistency series lengths and trajectory agree",
        "PASS dft margin=5.890e-10 first row within 1.112e-09 of DFT(x)/N (gap 5.228e-10)",
    ],
    "dft-subgroup": [
        "PASS artifacts all files present, config hash matches",
        "PASS weights margin=1.000e-09 61 rows are valid distributions",
        "PASS lyapunov margin=1.000e-12 column consistent and nonincreasing",
        "SKIP kl skipped: no certificate",
        "SKIP envelope skipped: no certificate",
        "SKIP conserved skipped: no conserved series recorded",
        "PASS lift margin=8.075e-13 gap 2.182e-15",
        "PASS consistency series lengths and trajectory agree",
        "PASS dft margin=9.968e-01 first row within 1.676e+00 of DFT(x)/N (gap 6.790e-01)",
    ],
    "gossip": [
        "PASS artifacts all files present, config hash matches",
        "PASS weights margin=1.000e-09 52 rows are valid distributions",
        "PASS lyapunov margin=1.000e-12 column consistent and nonincreasing",
        "PASS kl margin=1.313e-13 strict decrease over 10-step windows in steps 0..51",
        "PASS envelope margin=1.000e-12 rho=0.48728, T=10, inside over steps 0..51",
        "PASS conserved margin=1.000e-09 2 monitored quantities held",
        "PASS lift margin=6.582e-13 gap 4.441e-16",
        "PASS consistency series lengths and trajectory agree",
        "SKIP dft skipped: not a dft run",
    ],
    "gossip-cyclic": [
        "PASS artifacts all files present, config hash matches",
        "PASS weights margin=1.000e-09 54 rows are valid distributions",
        "PASS lyapunov margin=1.000e-12 column consistent and nonincreasing",
        "PASS kl margin=8.077e-14 strict decrease over 3-step windows in steps 0..53",
        "PASS envelope margin=1.000e-12 rho=0.616, T=3, inside over steps 0..53",
        "PASS conserved margin=1.000e-09 1 monitored quantities held",
        "PASS lift margin=4.767e-13 gap 1.110e-16",
        "PASS consistency series lengths and trajectory agree",
        "SKIP dft skipped: not a dft run",
    ],
    "gossip-subset": [
        "PASS artifacts all files present, config hash matches",
        "PASS weights margin=1.000e-09 55 rows are valid distributions",
        "PASS lyapunov margin=1.000e-12 column consistent and nonincreasing",
        "PASS kl margin=9.810e-13 strict decrease over 6-step windows in steps 0..54",
        "PASS envelope margin=1.000e-12 rho=0.789576, T=6, inside over steps 0..54",
        "PASS conserved margin=1.000e-09 1 monitored quantities held",
        "PASS lift margin=6.273e-13 gap 2.220e-16",
        "PASS consistency series lengths and trajectory agree",
        "SKIP dft skipped: not a dft run",
    ],
    "prob-sym": [
        "PASS artifacts all files present, config hash matches",
        "PASS weights margin=1.000e-09 46 rows are valid distributions",
        "PASS lyapunov margin=1.000e-12 column consistent and nonincreasing",
        "PASS kl margin=1.369e-12 strict decrease over 10-step windows in steps 0..45",
        "PASS envelope margin=1.000e-12 rho=0.48728, T=10, inside over steps 0..45",
        "PASS conserved margin=1.000e-09 1 monitored quantities held",
        "PASS lift margin=3.623e-13 gap 8.327e-17",
        "PASS consistency series lengths and trajectory agree",
        "SKIP dft skipped: not a dft run",
    ],
    "quantum-gossip": [
        "PASS artifacts all files present, config hash matches",
        "PASS weights margin=1.000e-09 54 rows are valid distributions",
        "PASS lyapunov margin=1.000e-12 column consistent and nonincreasing",
        "PASS kl margin=1.313e-13 strict decrease over 10-step windows in steps 0..53",
        "PASS envelope margin=1.000e-12 rho=0.48728, T=10, inside over steps 0..53",
        "PASS conserved margin=1.000e-09 4 monitored quantities held",
        "PASS lift margin=8.146e-13 gap 4.965e-16",
        "PASS consistency series lengths and trajectory agree",
        "SKIP dft skipped: not a dft run",
    ],
    "random-state": [
        "PASS artifacts all files present, config hash matches",
        "PASS weights margin=1.000e-09 13 rows are valid distributions",
        "PASS lyapunov margin=1.001e-12 column consistent and nonincreasing",
        "SKIP kl skipped: no certificate",
        "SKIP envelope skipped: no certificate",
        "SKIP conserved skipped: no conserved series recorded",
        "PASS lift margin=2.460e-02 TV gap 1.780e-02 within sampling bound 4.240e-02"
        " at beta=1e-06, 5000 trials",
        "PASS consistency series lengths and trajectory agree",
        "SKIP dft skipped: not a dft run",
    ],
}


def golden_config(name):
    doc = {"schema_version": 1, "application": name}
    doc.update(GOLDEN_RUNS[name][0])
    return parse_config(doc)


# sha256 of each golden run's result.json without metadata.runtime_seconds,
# the one field that differs between reruns (json.dumps of the loaded
# document with that key removed, as execute writes it).
GOLDEN_RESULTS = {
    "dd": "051adb177e6a7c2fa726a27547640c44fddc1f1394ada131ba7d801aace546fc",
    "dft": "259d06d510ae545a242aa6cb88b29b1ca5405ecefc583720454374aa910b12e4",
    "dft-subgroup": "5e6141f8fbccd70de471267e048cc7009eb2dc00b1ef214dd12f14279af28d7f",
    "gossip": "1c65f4819749e27d7fc553f98c30e402e5b37cc5544db093c863ccb0952d0e07",
    "gossip-cyclic": "1eb235f978d36462cd1e14140f7fa13795a90f4f39bb42d8f22258c2e677feae",
    "gossip-subset": "de6411d3d51791567900f1bbe683ec537639b17c8e47e9ad37f6045c08d39ad5",
    "prob-sym": "e422559086668b6c3889d3f14013b186646ac96da9390930b24d81a7a48c25f6",
    "quantum-gossip": "0fdfe9a9a976ed647d5d17203353ffeb6a1cb41620c5d5526bf7c6bda43ff9cd",
    "random-state": "64585b3432b4f535b961061b12cac103d299e1d519e8b23cd172fdd6ef223cf1",
}


def write_path(monkeypatch, forked):
    """Force the serial or the forked trajectory.csv writer; return the fork calls."""
    monkeypatch.setattr(lifted_module, "FORKED_WRITE_MIN_FIELDS", 0 if forked else sys.maxsize)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


# each golden on the serial writer or reader (ids as before) and on the forked one
GOLDEN_PATHS = [pytest.param(name, False, id=name) for name in sorted(GOLDEN_RUNS)] + [
    pytest.param(name, True, id=f"forked-{name}") for name in sorted(GOLDEN_RUNS)
]


@pytest.mark.parametrize("name, forked", GOLDEN_PATHS)
def test_golden_trajectory_bytes_and_certificate(name, forked, tmp_path, monkeypatch):
    _, sha256, certificate = GOLDEN_RUNS[name]
    cfg = golden_config(name)
    forks = write_path(monkeypatch, forked)
    art = execute(cfg, out_dir=run_dir(tmp_path))
    assert len(forks) == int(forked)
    with open(os.path.join(art.directory, "trajectory.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == sha256
    doc = load_result(art.directory)
    assert doc["certificate"] == certificate
    if certificate is not None:
        # run and certify apply one rule: certify at run's window cap agrees
        outcome = certify_run(cfg, 4 * doc["group_order"])
        assert certificate == {key: outcome[key] for key in certificate}
    doc["metadata"].pop("runtime_seconds", None)
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == GOLDEN_RESULTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLED_LAWS))
def test_golden_sampled_law_bytes(name, tmp_path):
    art = execute(golden_config(name), out_dir=run_dir(tmp_path))
    law = decode_state(load_result(art.directory)["final_state"])
    digest = hashlib.sha256(np.ascontiguousarray(law, dtype="<f8").tobytes()).hexdigest()
    assert digest == GOLDEN_SAMPLED_LAWS[name]


@pytest.mark.parametrize("name, forked", GOLDEN_PATHS)
def test_golden_verify_report(name, forked, tmp_path, monkeypatch):
    """On the serial trajectory.csv reader and on the forked one."""
    art = execute(golden_config(name), out_dir=run_dir(tmp_path))
    monkeypatch.setattr(lifted_module, "FORKED_READ_MIN_BYTES", 0 if forked else sys.maxsize)
    assert verify(art.directory).lines() == GOLDEN_REPORTS[name]
    subset = ["weights", "kl", "lift"]
    expected = [line for line in GOLDEN_REPORTS[name] if line.split()[1] in subset]
    assert verify(art.directory, subset).lines() == expected


@pytest.mark.parametrize("name", ["dft", "dft-subgroup", "N=8", "N=64"])
def test_dft_run_follows_the_term_by_term_direct_state(name):
    # a dft run holds M_t, not the state; the state it stands for must be
    # the one the plain N x N steps reach
    cfg = golden_config(name) if name in GOLDEN_RUNS else dft_config(int(name[2:]), seed=11)
    result = run_from_config(cfg)
    N = cfg.params["N"]
    x = np.asarray(harness_module._initial_array(cfg, (N,), "complex"), dtype=np.complex128)
    X0 = np.outer(x, np.ones(N))  # as run_dft builds it
    act = dft_action(N)
    run = act.direct_run(X0)
    mix, _ = act.mixer(X0)
    X, gap = X0, 0.0
    assert result.steps_run > 0
    for t in range(result.steps_run):
        idx, w = result.signal.rows(t, t + 1)
        X = dft_direct_step(idx[0], w[0], X, np.empty_like(X))
        run.step(idx[0], w[0])
        # within the lift check's round-off allowance for t + 1 steps
        assert np.abs(run.state() - X).max() <= lift_roundoff(t + 1, N, X0)
        gap = max(gap, float(np.abs(mix(result.weights_trajectory[t + 1]) - run.state().ravel()).max()))
    assert np.array_equal(run.state(), result.final_state)
    # by Parseval the recorded gap is the Frobenius norm of mix(p_t) - state
    # at its worst step, which bounds the largest entry at every step
    assert result.lift_direct_gap >= gap > 0
    # weights off by q read as ||mix(p_T + q) - state||_F, far above round-off
    p = result.weights_trajectory[-1] + 1e-3 * np.random.default_rng(N).standard_normal(N)
    frobenius = np.linalg.norm(mix(p) - run.state().ravel())
    assert run.lift_gap(p) == pytest.approx(frobenius, rel=1e-9)


# The benchmark's dft-z256 workload: N = 256 over the support 1..255 with its
# pinned schedule seed.  Its steps and trajectory.csv do not depend on how
# the direct state is held.
DFT_Z256_SCHEDULE = {"kind": "random-gossip", "support": list(range(1, 256)), "seed": 3386250816931739734}
DFT_Z256_PINS = {
    7: (64, "bb508e333d5bd55c84dc6c70020829739a8911c74a046035d6eb97070b4a4444"),
    11: (65, "1169290146d155d9a84d31b4b5c70f303c0306d21ff4aed569e1e9c1bdf0a9e2"),
}


@pytest.mark.parametrize("seed", sorted(DFT_Z256_PINS))
def test_dft_z256_keeps_its_steps_and_trajectory(seed, tmp_path):
    steps, sha256 = DFT_Z256_PINS[seed]
    art = execute(dft_config(256, seed, schedule=DFT_Z256_SCHEDULE), out_dir=run_dir(tmp_path))
    assert art.exit_code == EXIT_OK
    assert art.result.steps_run == steps
    with open(os.path.join(art.directory, "trajectory.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == sha256
    statuses = {c.name: c.status for c in verify(art.directory).checks}
    # a dft run records no conserved series; every other check passes
    assert statuses.pop("conserved") == "skip"
    assert set(statuses.values()) == {"pass"}


# -- the forked trajectory writer's failures ------------------------------------


class RaisingColumn(list):
    """A trajectory column that raises ``exc`` on a slice read that takes one of
    ``rows`` (< 0: from the end)."""

    def __init__(self, values, rows, exc):
        super().__init__(values)
        self.rows, self.exc = {row % len(values) for row in rows}, exc

    def __getitem__(self, index):
        hit = self.rows.intersection(range(len(self))[index])
        if hit:
            raise self.exc(f"row {min(hit)} is unreadable")
        return super().__getitem__(index)


def raise_in_kl(monkeypatch, rows, exc):
    real = lifted_module.write_trajectory_csv

    def write(path, weights, lyapunov, kl, **kwargs):
        return real(path, weights, lyapunov, RaisingColumn(kl, rows, exc), **kwargs)

    monkeypatch.setattr(harness_module, "write_trajectory_csv", write)


class ParentRaisingColumn(list):
    """A trajectory column whose slice reads that take row 0 raise ``exc`` in
    the creating process, after it makes the file ``flag``.  Reads in another
    process first wait for ``flag``: the writer child holds its first block, so
    the parent claims block 0."""

    def __init__(self, values, flag, exc):
        super().__init__(values)
        self.flag, self.exc, self.parent = flag, exc, os.getpid()

    def __getitem__(self, index):
        if os.getpid() == self.parent:
            if 0 in range(len(self))[index]:
                open(self.flag, "w").close()
                raise self.exc("row 0 is unreadable in the parent")
        else:
            deadline = time.monotonic() + 30.0
            while not os.path.exists(self.flag):
                assert time.monotonic() < deadline, "timed out"
                time.sleep(0.001)
        return super().__getitem__(index)


def raise_in_certificate(monkeypatch, exc, forks=()):
    """Make the certificate search raise ``exc``; return the fork count at each search."""
    seen = []

    def certify(*args, **kwargs):
        seen.append(len(forks))
        raise exc("no certificate today")

    monkeypatch.setattr(harness_module, "certify_schedule", certify)
    return seen


def assert_nothing_left(directory):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    names = os.listdir(directory)
    assert "trajectory.csv" not in names
    assert not [name for name in names if name.startswith(".tmp-")]


def test_failed_writer_child_is_a_harness_error_and_leaves_no_csv(tmp_path, monkeypatch):
    forks = write_path(monkeypatch, forked=True)
    raise_in_kl(monkeypatch, [-1], RuntimeError)  # the last row is in the child's first claim
    with pytest.raises(HarnessError, match="could not write artifacts") as caught:
        execute(golden_config("gossip"), out_dir=run_dir(tmp_path))
    assert caught.value.module == "harness"
    assert len(forks) == 1
    assert_nothing_left(run_dir(tmp_path))


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_parent_failure_propagates_and_reaps_the_writer_child(exc, tmp_path, monkeypatch):
    forks = write_path(monkeypatch, forked=True)
    searches = raise_in_certificate(monkeypatch, exc, forks)
    os.makedirs(run_dir(tmp_path))
    with pytest.raises(exc, match="no certificate today"):
        execute(golden_config("gossip"), out_dir=run_dir(tmp_path))
    assert searches == [1]  # the search ran while the child was formatting
    assert_nothing_left(run_dir(tmp_path))
    assert os.listdir(run_dir(tmp_path)) == []  # no result.json either


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_parent_failure_in_its_claim_loop_reaps_the_writer_child(exc, tmp_path, monkeypatch):
    forks = write_path(monkeypatch, forked=True)
    # the golden's rows fit one block; one-row blocks give the parent a claim
    monkeypatch.setattr(lifted_module, "_rows_per_block", lambda cols: 1)
    flag = tmp_path / "parent-read-row-0"
    real = lifted_module.write_trajectory_csv

    def write(path, weights, lyapunov, kl, **kwargs):
        return real(path, weights, lyapunov, ParentRaisingColumn(kl, flag, exc), **kwargs)

    monkeypatch.setattr(harness_module, "write_trajectory_csv", write)
    with pytest.raises(exc, match="row 0 is unreadable in the parent"):
        execute(golden_config("gossip"), out_dir=run_dir(tmp_path))
    assert len(forks) == 1
    assert flag.exists()
    assert_nothing_left(run_dir(tmp_path))


@pytest.mark.parametrize("forked", [False, True])
@pytest.mark.parametrize(
    "exc, error, module", [(ValueError, ConfigError, None), (ArithmeticError, HarnessError, "gossip")]
)
def test_a_failed_certificate_search_is_mapped_and_writes_nothing(
    forked, exc, error, module, tmp_path, monkeypatch
):
    write_path(monkeypatch, forked)
    raise_in_certificate(monkeypatch, exc)
    cfg = golden_config("gossip")
    with pytest.raises(error, match="no certificate today") as caught:
        execute(cfg, out_dir=run_dir(tmp_path, "new/art"))
    if module is not None:
        assert caught.value.module == module
    # as before the search moved out of run_from_config: no directory is made
    assert os.listdir(tmp_path) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    path = tmp_path / "config.json"
    path.write_text(serialize_config(cfg))
    assert main(["run", str(path), "--out", run_dir(tmp_path)]) == (
        EXIT_CONFIG if error is ConfigError else EXIT_RUNTIME
    )
    assert os.listdir(tmp_path) == ["config.json"]


def test_writer_without_fork_writes_the_same_bytes(tmp_path, monkeypatch):
    write_path(monkeypatch, forked=True)
    monkeypatch.delattr(os, "fork")
    art = execute(golden_config("gossip"), out_dir=run_dir(tmp_path))
    with open(os.path.join(art.directory, "trajectory.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_RUNS["gossip"][1]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifact_modes_follow_the_umask(umask, mode, tmp_path):
    old = os.umask(umask)
    try:
        art = execute(gossip_config(steps=20), out_dir=run_dir(tmp_path))
    finally:
        os.umask(old)
    assert sorted(art.files) == ["config.json", "manifest.json", "result.json", "trajectory.csv"]
    for name in art.files:
        assert stat.S_IMODE(os.stat(os.path.join(art.directory, name)).st_mode) == mode


# -- what a run loads ------------------------------------------------------------

# Imports the package as the CLI does, then runs and verifies each config it
# is given and prints, per config, the modules that run first imported.
IMPORT_PROBE = """
import json, sys, tempfile
import groupsym, groupsym.cli
from groupsym.config import parse_config
from groupsym.harness import execute, verify
loaded = set(sys.modules)
first = {"import": sorted(name for name in loaded if name.split(".")[0] == "scipy")}
for name, doc in json.loads(sys.argv[1]):
    with tempfile.TemporaryDirectory() as directory:
        verify(execute(parse_config(doc), out_dir=directory).directory)
    first[name] = sorted(set(sys.modules) - loaded)
    loaded.update(sys.modules)
print(json.dumps(first))
"""

DD_DT = {
    "schema_version": 1,
    "application": "dd",
    "schedule": {"kind": "dd-bisection", "chooser": [1, 3]},
    "params": {"dt": 0.05},
    "steps": 4,
    "seed": 7,
}


def test_import_loads_everything_a_run_uses_and_no_scipy():
    import groupsym

    src = os.path.dirname(os.path.dirname(os.path.abspath(groupsym.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    runs = [(name, golden_config(name).to_dict()) for name in sorted(GOLDEN_RUNS)]
    runs.append(("dd-dt", DD_DT))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert probe.returncode == 0, probe.stderr
    first = json.loads(probe.stdout)
    assert first.pop("import") == []
    # the dd propagator gap is the one run path that needs scipy
    assert "scipy.linalg" in first.pop("dd-dt")
    # each run's modules were loaded by the import, so setup time covers them
    assert first == {name: [] for name in GOLDEN_RUNS}


def test_python_m_groupsym_runs_a_golden(tmp_path):
    import groupsym

    src = os.path.dirname(os.path.dirname(os.path.abspath(groupsym.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    config_path = tmp_path / "gossip.json"
    config_path.write_text(serialize_config(golden_config("gossip")))
    out = tmp_path / "art"
    proc = subprocess.run(
        [sys.executable, "-m", "groupsym", "run", str(config_path), "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    with open(out / "trajectory.csv", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_RUNS["gossip"][1]


def test_dd_run_with_dt_records_the_runner_propagator_gap(tmp_path):
    I, X, Y, Z = pauli_matrices()
    H_d = 0.3 * X + 0.7 * Z
    doc = dict(DD_DT, initial_state={"source": "inline", "data": encode_state(H_d)})
    art = execute(parse_config(doc), out_dir=run_dir(tmp_path))
    direct = run_dynamical_decoupling(
        pauli_quotient_group(), H_d, pauli_matrices(), [1, 3], 4, dt=0.05
    )
    gaps = load_result(art.directory)["extras"]["propagator_gap"]
    assert gaps == {str(n): gap for n, gap in direct.extras["propagator_gap"].items()}
    assert gaps["0"] == 0.0 and gaps["1"] > 1e-4
    assert verify(art.directory).passed


@pytest.mark.parametrize(
    "application, params, group_name",
    [
        ("gossip", {"m": 4}, "S4"),
        ("prob-sym", {"m": 3, "outcome_size": 2}, "S3"),
        ("quantum-gossip", {"m": 3, "local_dim": 2}, "S3"),
        ("dft", {"N": 8}, "Z8"),
    ],
)
def test_run_builds_its_group_once(application, params, group_name, tmp_path, monkeypatch):
    monkeypatch.setattr(groups_module, "_MEMO", weakref.WeakValueDictionary())
    built = []
    original_init = groups_module.FiniteGroup.__init__

    def counting_init(self, table, **kwargs):
        built.append(kwargs.get("name"))
        original_init(self, table, **kwargs)

    monkeypatch.setattr(groups_module.FiniteGroup, "__init__", counting_init)
    doc = {"schema_version": 1, "application": application, "params": params, "seed": 3}
    if application == "dft":
        doc["schedule"] = {"kind": "random-gossip", "support": list(range(1, 8))}
    execute(parse_config(doc), out_dir=run_dir(tmp_path))
    assert built == [group_name]


@pytest.mark.parametrize(
    "application, params",
    [
        ("gossip", {"m": 5, "n": 2}),
        ("prob-sym", {"m": 4, "outcome_size": 2}),
        ("quantum-gossip", {"m": 5, "local_dim": 2}),
    ],
)
def test_symmetric_runs_never_build_the_dense_table(application, params, tmp_path, monkeypatch):
    monkeypatch.setattr(groups_module, "_MEMO", weakref.WeakValueDictionary())
    group = symmetric_group(params["m"])  # held, so the run shares this instance
    cfg = parse_config(
        {"schema_version": 1, "application": application, "params": params, "seed": 3, "steps": 60}
    )
    art = execute(cfg, out_dir=run_dir(tmp_path))
    assert art.result.certificate is not None
    assert all(c.status != "fail" for c in verify(art.directory).checks)
    assert certify_run(cfg, 8)["group_order"] == group.order
    assert group.permutation_backed and group._table is None
    # only the rows of the edge transpositions (their own inverses; identity
    # translations are skipped), within the preflight's charge for them
    assert group._rows_built == len(cfg.params["edges"])
    parts = config_module._dense_bytes(cfg.application, cfg.params, cfg.schedule, cfg.steps)
    assert "table" not in parts
    assert 4 * group.order * group._rows_built <= parts["rows"]




def test_dft_run_stays_within_its_memory_preflight(tmp_path):
    # the preflight charges DFT_KERNEL_ARRAYS N x N complex arrays for what the
    # Fourier run and the result write hold, next to the group's table and
    # the lifted weights
    cfg = dft_config(256)
    parts = config_module._dense_bytes(cfg.application, cfg.params, cfg.schedule, cfg.steps)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        execute(cfg, out_dir=run_dir(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= sum(parts.values())


# -- binary arrays in result.json and the dft check ------------------------------


def dft_config(N=8, seed=7, **extra):
    doc = {
        "schema_version": 1,
        "application": "dft",
        "params": {"N": N},
        "schedule": {"kind": "random-gossip", "support": list(range(1, N))},
        "seed": seed,
    }
    doc.update(extra)
    return parse_config(doc)


def quantum_config():
    return parse_config(
        {
            "schema_version": 1,
            "application": "quantum-gossip",
            "params": {"m": 3, "local_dim": 2},
            "steps": 200,
            "seed": 7,
        }
    )


def load_result(directory):
    with open(os.path.join(directory, "result.json")) as fh:
        return json.load(fh)


def save_result(directory, doc):
    with open(os.path.join(directory, "result.json"), "w") as fh:
        json.dump(doc, fh)


def check_named(directory, name):
    return next(c for c in verify(directory).checks if c.name == name)


class TestBinaryArrays:
    def test_dft_result_size_guard(self, tmp_path):
        art = execute(dft_config(256), out_dir=run_dir(tmp_path))
        path = os.path.join(art.directory, "result.json")
        assert os.path.getsize(path) <= 3_000_000
        doc = load_result(art.directory)
        assert doc["schema_version"] == 2
        assert doc["final_state"]["dtype"] == "<c16"
        assert np.array_equal(decode_state(doc["final_state"]), art.result.final_state)
        assert np.array_equal(
            decode_state(doc["extras"]["x_hat_exact"]), art.result.extras["x_hat_exact"]
        )

    def test_conserved_series_round_trip_exactly(self, tmp_path):
        art = execute(quantum_config(), out_dir=run_dir(tmp_path))
        series = load_result(art.directory)["conserved_series"]
        expected = art.result.extras["conserved_series"]
        assert set(series) == set(expected)
        assert series["average_spectrum"]["dtype"] == "<f8"
        for name, payload in series.items():
            assert np.array_equal(decode_state(payload), expected[name]), name

    @pytest.mark.parametrize(
        "make_config",
        [dft_config, lambda: dft_config(16), lambda: golden_config("quantum-gossip")],
        ids=["dft-z8", "dft-z16", "golden-quantum-gossip"],
    )
    def test_result_json_is_json_dumps_bytes(self, make_config, tmp_path, monkeypatch):
        """result.json copies each base64 text unescaped and is still byte for
        byte json.dumps of the document, then a newline."""
        docs = []
        real = harness_module.result_to_dict
        monkeypatch.setattr(
            harness_module, "result_to_dict", lambda *args: docs.append(real(*args)) or docs[-1]
        )
        art = execute(make_config(), out_dir=run_dir(tmp_path))
        with open(os.path.join(art.directory, "result.json")) as fh:
            assert fh.read() == json.dumps(docs[0]) + "\n"

    def test_json_writer_copies_only_base64_states_verbatim(self, tmp_path):
        state = encode_state(np.arange(100.0))
        assert isinstance(state, Base64State)
        doc = {
            "a": [state, (1, 2.5, None), {"base64": 'not "base64"\n\u00e9'}],
            "b": state,
            "c": ["\u2603", float("nan"), -0.0, True],
            3: {"nested": [[state]]},
        }
        path = str(tmp_path / "doc.json")
        harness_module._json(doc)(path)
        with open(path) as fh:
            assert fh.read() == json.dumps(doc) + "\n"
        with pytest.raises(TypeError, match="not JSON serializable"):
            harness_module._json({"x": np.float32(1.0)})(path)

    @pytest.mark.parametrize(
        "make_config, key",
        [(lambda: dft_config(16), "final_state"), (quantum_config, "average_spectrum")],
        ids=["final_state", "conserved_series"],
    )
    def test_truncated_base64_is_unreadable(self, tmp_path, make_config, key):
        art = execute(make_config(), out_dir=run_dir(tmp_path))
        doc = load_result(art.directory)
        payload = doc["final_state"] if key == "final_state" else doc["conserved_series"][key]
        payload["base64"] = payload["base64"][:-7]
        save_result(art.directory, doc)
        report = verify(art.directory)
        artifacts = next(c for c in report.checks if c.name == "artifacts")
        assert artifacts.status == "fail"
        assert "unreadable" in artifacts.detail and "base64" in artifacts.detail
        assert all(c.status == "skip" for c in report.checks if c.name != "artifacts")


class TestDftCheck:
    @pytest.mark.parametrize("N", [8, 64, 256])
    def test_seeds_pass(self, tmp_path, N):
        for seed in range(1, 11):
            art = execute(dft_config(N, seed), out_dir=run_dir(tmp_path, f"s{seed}"))
            dft = check_named(art.directory, "dft")
            assert dft.status == "pass" and dft.margin > 0, (seed, dft.line())

    def test_perturbed_first_row_fails_at_its_column(self, tmp_path):
        art = execute(dft_config(64), out_dir=run_dir(tmp_path))
        assert check_named(art.directory, "dft").status == "pass"
        doc = load_result(art.directory)
        final = decode_state(doc["final_state"])
        final[0, 37] += 1e-6
        doc["final_state"] = encode_state(final)
        save_result(art.directory, doc)
        dft = check_named(art.directory, "dft")
        assert dft.status == "fail" and dft.margin < 0
        assert "column 37" in dft.detail

    def test_forged_first_row_gap_does_not_change_the_verdict(self, tmp_path):
        art = execute(dft_config(64), out_dir=run_dir(tmp_path))
        before = check_named(art.directory, "dft").line()
        doc = load_result(art.directory)
        doc["extras"]["first_row_gap"] = 0.0
        save_result(art.directory, doc)
        assert check_named(art.directory, "dft").line() == before
        final = decode_state(doc["final_state"])
        final[0, 5] -= 1e-3
        doc["final_state"] = encode_state(final)
        save_result(art.directory, doc)
        assert check_named(art.directory, "dft").status == "fail"

    def test_gossip_run_skips(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        dft = check_named(art.directory, "dft")
        assert (dft.status, dft.detail) == ("skip", "skipped: not a dft run")

    def test_file_initial_state_that_no_longer_resolves_skips(self, tmp_path):
        rng = np.random.default_rng(5)
        state = tmp_path / "x0.json"
        save_state(state, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        cfg = dft_config(8, initial_state={"source": "file", "path": str(state)})
        art = execute(cfg, out_dir=run_dir(tmp_path))
        assert check_named(art.directory, "dft").status == "pass"
        state.unlink()
        report = verify(art.directory)
        dft = next(c for c in report.checks if c.name == "dft")
        assert dft.status == "skip"
        assert "initial_state.path" in dft.detail and "does not exist" in dft.detail
        assert report.passed

    def test_relative_file_initial_state_resolves_from_the_run_directory(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(5)
        save_state(tmp_path / "x0.json", rng.standard_normal(8) + 1j * rng.standard_normal(8))
        monkeypatch.chdir(tmp_path)
        cfg = dft_config(8, initial_state={"source": "file", "path": "x0.json"})
        art = execute(cfg, out_dir=str(tmp_path / "runs" / "a"))
        report = verify(art.directory)
        assert check_named(art.directory, "dft").line().startswith("PASS dft")
        assert report.passed
        with open(os.path.join(art.directory, "config.json")) as fh:
            assert json.load(fh)["initial_state"]["path"] == str(tmp_path / "x0.json")
        # the config itself, its hash and so its default directory keep the relative path
        assert cfg.initial_state["path"] == "x0.json"


DELETED = object()


class TestSamplingLift:
    """A random-state run's lift check re-derives its gap and its bound."""

    GOLDEN_LINE = GOLDEN_REPORTS["random-state"][6]

    def run(self, tmp_path):
        art = execute(golden_config("random-state"), out_dir=run_dir(tmp_path))
        return art.directory, load_result(art.directory)

    def lift(self, directory):
        report = verify(directory, ["lift"])
        assert len(report.checks) == 1
        return report.checks[0]

    def test_bound_values(self):
        assert sampling_tolerance(1024, 10**6) == pytest.approx(0.0190, abs=5e-5)
        assert sampling_tolerance(720, 2 * 10**6) == pytest.approx(0.0113, abs=5e-5)
        assert sampling_tolerance(6, 10**6) == pytest.approx(0.0030, abs=5e-5)
        # tighter with more trials, looser with more cells
        assert sampling_tolerance(6, 10**7) < sampling_tolerance(6, 10**6)
        assert sampling_tolerance(7, 10**6) > sampling_tolerance(6, 10**6)

    def test_result_records_the_bound_and_beta(self, tmp_path):
        _, doc = self.run(tmp_path)
        assert doc["lift_tolerance"] == sampling_tolerance(6, 5000)
        assert doc["metadata"]["sampling_beta"] == SAMPLING_BETA

    def test_recorded_gap_and_tolerance_are_not_trusted(self, tmp_path):
        directory, doc = self.run(tmp_path)
        doc["lift_direct_gap"], doc["lift_tolerance"] = 1.0, 0.0
        save_result(directory, doc)
        assert self.lift(directory).line() == self.GOLDEN_LINE
        # all mass on one element, far from the exact law
        doc["lift_direct_gap"], doc["lift_tolerance"] = 0.0, 1.0
        doc["final_state"] = encode_state(np.eye(6)[0])
        save_result(directory, doc)
        lift = self.lift(directory)
        assert lift.status == "fail"
        assert lift.detail.startswith("TV gap ")
        assert "exceeds sampling bound 4.240e-02" in lift.detail

    def test_bound_follows_the_config_trials(self, tmp_path):
        directory, _ = self.run(tmp_path)
        path = os.path.join(directory, "config.json")
        with open(path) as fh:
            config_doc = json.load(fh)
        config_doc["trials"] = 5 * 10**6
        with open(path, "w") as fh:
            json.dump(config_doc, fh)
        lift = self.lift(directory)
        assert lift.status == "fail"
        assert "sampling bound 1.341e-03 at beta=1e-06, 5000000 trials" in lift.detail

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("trials", DELETED, "config.json trials: expected an integer >= 1, got None"),
            ("trials", 0, "config.json trials: expected an integer >= 1, got 0"),
            ("final_state", encode_state(np.full(2, 0.5)), "final_state: shape (2,) is not one"),
        ],
        ids=["trials-missing", "trials-zero", "final-state-shape"],
    )
    def test_unreadable_sampling_fields(self, tmp_path, field, value, message):
        directory, doc = self.run(tmp_path)
        name = "config.json" if field == "trials" else "result.json"
        path = os.path.join(directory, name)
        with open(path) as fh:
            target = json.load(fh)
        if value is DELETED:
            del target[field]
        else:
            target[field] = value
        with open(path, "w") as fh:
            json.dump(target, fh)
        line = verify(directory).lines()[0]
        assert line.startswith(f"FAIL artifacts unreadable: {message}")


class TestUnreadableArtifacts:
    @pytest.mark.parametrize(
        "path, value",
        [
            (("steps_run",), "abc"),
            (("lift_direct_gap",), None),
            (("lift_direct_gap",), [1]),
            (("tolerances",), []),
            (("certificate", "T"), DELETED),
            (("certificate", "T"), 0),
            (("certificate", "delta"), 0.9),
            (("certificate", "delta"), -1),
            (("certificate", "horizon"), "x"),
        ],
        ids=[
            "steps_run-text",
            "lift_direct_gap-null",
            "lift_direct_gap-list",
            "tolerances-list",
            "T-missing",
            "T-zero",
            "delta-too-large",
            "delta-negative",
            "horizon-text",
        ],
    )
    def test_forged_result_field(self, tmp_path, capsys, path, value):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        doc = load_result(art.directory)
        *parents, key = path
        target = doc
        for parent in parents:
            target = target[parent]
        if value is DELETED:
            del target[key]
        else:
            target[key] = value
        save_result(art.directory, doc)
        report = verify(art.directory)
        assert report.lines()[0].startswith(f"FAIL artifacts unreadable: {'.'.join(path)}: ")
        assert report.lines()[1:] == [
            f"SKIP {name} skipped: artifacts unreadable" for name in VERIFY_CHECKS[1:]
        ]
        assert main(["verify", art.directory]) == EXIT_CONFIG
        assert "runtime error" not in capsys.readouterr().err

    def test_non_finite_weight(self, tmp_path):
        art = execute(gossip_config(), out_dir=run_dir(tmp_path))
        csv_path = os.path.join(art.directory, "trajectory.csv")
        lines = open(csv_path).read().splitlines(keepends=True)
        fields = lines[6].rstrip("\n").split(",")
        fields[1] = "nan"
        lines[6] = ",".join(fields) + "\n"
        open(csv_path, "w").writelines(lines)
        report = verify(art.directory)
        assert report.lines()[0] == "FAIL artifacts unreadable: row 5 has a non-finite value"
        assert all(c.status == "skip" for c in report.checks[1:])

    def test_non_finite_conserved_series(self, tmp_path):
        art = execute(quantum_config(), out_dir=run_dir(tmp_path))
        doc = load_result(art.directory)
        series = decode_state(doc["conserved_series"]["average_spectrum"])
        series[4] = np.nan
        doc["conserved_series"]["average_spectrum"] = encode_state(series)
        save_result(art.directory, doc)
        report = verify(art.directory)
        assert report.lines()[0] == (
            "FAIL artifacts unreadable: conserved_series.average_spectrum: "
            "non-finite value at step 4"
        )
        assert all(c.status == "skip" for c in report.checks[1:])


# -- the package namespace -------------------------------------------------------


def test_package_exports_each_module_public_names():
    import groupsym

    modules = [
        groupsym.groups,
        groupsym.lifted,
        groupsym.actions,
        groupsym.schedules,
        groupsym.applications,
        groupsym.config,
        harness_module,
    ]
    assert len(groupsym.__all__) == len(set(groupsym.__all__))
    for module in modules:
        for name in module.__all__:
            assert name in groupsym.__all__, (module.__name__, name)
            assert getattr(groupsym, name) is getattr(module, name)
    # documented in the README
    assert {"__version__", "lifted_steps", "lifted_series", "Signal"} <= set(groupsym.__all__)
