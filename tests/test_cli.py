"""CLI verbs, flag overrides, and exit-code mapping."""

from __future__ import annotations

import json
import os

import pytest

from groupsym.cli import main


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def gossip_doc(**extra):
    doc = {"schema_version": 1, "application": "gossip", "seed": 7, "steps": 300}
    doc.update(extra)
    return doc


class TestRunVerb:
    def test_run_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc())
        out = str(tmp_path / "art")
        assert main(["run", cfg, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "converged: true" in stdout
        assert out in stdout
        assert sorted(os.listdir(out)) == [
            "config.json",
            "manifest.json",
            "result.json",
            "trajectory.csv",
        ]

    def test_rerun_of_a_saved_config_writes_to_the_same_directory(self, tmp_path, capsys):
        # a relative output is saved absolute, so a rerun from the run
        # directory does not nest a second run under it
        cfg = write_config(tmp_path, gossip_doc(steps=20, output="runs/a"))
        main(["run", cfg])
        run_dir = tmp_path / "runs" / "a"
        first = (run_dir / "trajectory.csv").read_bytes()
        assert json.loads((run_dir / "config.json").read_text())["output"] == str(run_dir)
        main(["run", str(run_dir / "config.json")])
        assert sorted(os.listdir(run_dir)) == [
            "config.json",
            "manifest.json",
            "result.json",
            "trajectory.csv",
        ]
        assert (run_dir / "trajectory.csv").read_bytes() == first
        assert main(["verify", str(run_dir)]) == 0

    def test_run_not_converged_exits_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, gossip_doc(params={"m": 3, "edges": [[0, 1]]}, steps=80)
        )
        assert main(["run", cfg, "--out", str(tmp_path / "art")]) == 3
        assert "converged: false" in capsys.readouterr().out

    def test_seed_override_changes_trajectory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc())
        main(["run", cfg, "--out", str(tmp_path / "a")])
        main(["run", cfg, "--seed", "99", "--out", str(tmp_path / "b")])
        bytes_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        bytes_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert bytes_a != bytes_b
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_steps_override(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            gossip_doc(
                schedule={"kind": "cyclic", "elements": [[0, 1]]},
                initial_state={"source": "inline", "data": [1.0, 2.0, 3.0]},
            ),
        )
        main(["run", cfg, "--steps", "5", "--out", str(tmp_path / "art")])
        doc = json.loads((tmp_path / "art" / "result.json").read_text())
        assert doc["steps_run"] <= 5
        cfg_copy = json.loads((tmp_path / "art" / "config.json").read_text())
        assert cfg_copy["steps"] == 5

    def test_tolerance_override_stops_earlier(self, tmp_path):
        cfg = write_config(tmp_path, gossip_doc())
        main(["run", cfg, "--out", str(tmp_path / "tight")])
        main(["run", cfg, "--tolerance", "residual=1e-2", "--out", str(tmp_path / "loose")])
        tight = json.loads((tmp_path / "tight" / "result.json").read_text())
        loose = json.loads((tmp_path / "loose" / "result.json").read_text())
        assert loose["steps_run"] < tight["steps_run"]
        assert loose["threshold"] == 1e-2

    def test_bad_tolerance_syntax_exits_four(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc())
        assert main(["run", cfg, "--tolerance", "residual"]) == 4
        assert "KEY=VAL" in capsys.readouterr().err

    def test_tolerance_override_on_null_tolerances(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc(tolerances=None))
        out = tmp_path / "art"
        assert main(["run", cfg, "--tolerance", "residual=1e-2", "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["threshold"] == 1e-2

    def test_tolerance_override_on_non_object_tolerances_exits_four(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc(tolerances=[1e-8]))
        out = tmp_path / "art"
        assert main(["run", cfg, "--tolerance", "residual=1e-2", "--out", str(out)]) == 4
        assert "tolerances: expected an object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            {"initial_state": {"source": "inline", "data": [float("nan"), 1.0, 2.0]}},
            {
                "schedule": {
                    "kind": "custom-sequence",
                    "rows": [[float("nan"), 0.5, 0.5, 0.0, 0.0, 0.0]],
                }
            },
        ],
        ids=["initial-state", "schedule-row"],
    )
    def test_non_finite_config_exits_four_and_writes_nothing(self, extra, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc(**extra))
        assert "NaN" in open(cfg).read()
        out = tmp_path / "art"
        assert main(["run", cfg, "--out", str(out)]) == 4
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_four(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 4
        assert "does not exist" in capsys.readouterr().err

    def test_invalid_config_exits_four(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc(bogus=1))
        assert main(["run", cfg]) == 4
        assert "unknown key 'bogus'" in capsys.readouterr().err


class TestVerifyVerb:
    def test_verify_passes_fresh_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc())
        out = str(tmp_path / "art")
        main(["run", cfg, "--out", out])
        capsys.readouterr()
        assert main(["verify", out]) == 0
        stdout = capsys.readouterr().out
        assert "verification: passed" in stdout
        assert stdout.count("PASS") >= 6

    def test_verify_fails_after_corruption(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc())
        out = tmp_path / "art"
        main(["run", cfg, "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines(keepends=True)
        fields = lines[4].rstrip("\n").split(",")
        fields[-2] = "0.5"
        lines[4] = ",".join(fields) + "\n"
        (out / "trajectory.csv").write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 4
        stdout = capsys.readouterr().out
        assert "FAIL lyapunov" in stdout
        assert "step 3" in stdout

    @pytest.mark.parametrize("keep_header", [False, True])
    def test_verify_trajectory_without_rows_exits_four(self, tmp_path, capsys, keep_header):
        cfg = write_config(tmp_path, gossip_doc())
        out = tmp_path / "art"
        main(["run", cfg, "--out", str(out)])
        header = (out / "trajectory.csv").read_bytes().split(b"\n")[0] + b"\n"
        (out / "trajectory.csv").write_bytes(header if keep_header else b"")
        capsys.readouterr()
        assert main(["verify", str(out)]) == 4
        captured = capsys.readouterr()
        assert "FAIL artifacts" in captured.out
        assert "runtime error" not in captured.err

    def test_verify_checks_subset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc())
        out = str(tmp_path / "art")
        main(["run", cfg, "--out", out])
        capsys.readouterr()
        assert main(["verify", out, "--checks", "weights,lift"]) == 0
        stdout = capsys.readouterr().out
        assert "weights" in stdout and "lift" in stdout
        assert "envelope" not in stdout

    def test_verify_subset_with_missing_artifacts_exits_four(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc())
        out = tmp_path / "art"
        main(["run", cfg, "--out", str(out)])
        (out / "result.json").unlink()
        capsys.readouterr()
        assert main(["verify", str(out), "--checks", "weights"]) == 4
        stdout = capsys.readouterr().out
        assert "FAIL artifacts missing: result.json" in stdout
        assert "SKIP weights" in stdout
        assert "verification: FAILED" in stdout

    def test_verify_missing_directory_exits_four(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nowhere")]) == 4

    def test_verify_unknown_check_exits_four(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc())
        out = str(tmp_path / "art")
        main(["run", cfg, "--out", out])
        assert main(["verify", out, "--checks", "sparkle"]) == 4


class TestCertifyVerb:
    def test_certify_prints_window(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            gossip_doc(
                schedule={"kind": "cyclic", "elements": [[0, 1], [1, 2]]},
                initial_state={"source": "inline", "data": [1.0, 2.0, 3.0]},
            ),
        )
        assert main(["certify", cfg, "--max-T", "12"]) == 0
        stdout = capsys.readouterr().out
        assert "certificate: T=" in stdout
        assert "delta=" in stdout

    def test_certify_failure_exits_three_with_witness(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            gossip_doc(
                schedule={"kind": "cyclic", "elements": [[0, 1]]},
                initial_state={"source": "inline", "data": [1.0, 2.0, 3.0]},
            ),
        )
        assert main(["certify", cfg, "--max-T", "8"]) == 3
        stdout = capsys.readouterr().out
        assert "no certificate" in stdout
        assert "witness" in stdout

    def test_certify_bad_max_t_exits_four(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gossip_doc())
        assert main(["certify", cfg, "--max-T", "0"]) == 4

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_certify_bad_horizon_exits_four(self, tmp_path, capsys, horizon):
        cfg = write_config(tmp_path, gossip_doc())
        assert main(["certify", cfg, "--max-T", "4", "--horizon", horizon]) == 4
        assert f"--horizon must be >= 1, got {horizon}" in capsys.readouterr().err

    def test_certify_failure_names_the_window_it_scanned(self, tmp_path, capsys):
        # --steps 0 scans a one-step horizon, so max_T is clamped to T=1
        cfg = write_config(tmp_path, gossip_doc())
        assert main(["certify", cfg, "--max-T", "4", "--steps", "0"]) == 3
        assert "no certificate up to T=1 over horizon=1;" in capsys.readouterr().out


class TestSpectralVerb:
    def test_spectral_prints_both_factors(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
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
            },
        )
        assert main(["spectral", cfg]) == 0
        stdout = capsys.readouterr().out
        assert "sigma_consensus: 0.55" in stdout
        assert "sigma_lifted: 0.7999999999" in stdout
        assert "strictly larger" in stdout

    def test_spectral_rejects_non_gossip(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema_version": 1,
                "application": "dft",
                "params": {"N": 4},
                "schedule": {"kind": "cyclic", "elements": [1]},
                "initial_state": {"source": "inline", "data": [1.0, 0.0, 0.0, 0.0]},
            },
        )
        assert main(["spectral", cfg]) == 4
