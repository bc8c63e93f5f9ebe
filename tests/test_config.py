"""Config parsing: strictness, defaults, path errors, round-trips."""

from __future__ import annotations

import ast
import json
import os
import tracemalloc

import numpy as np
import pytest

import groupsym.applications as applications_module
import groupsym.config as config_module
import groupsym.groups as groups_module
import groupsym.harness as harness_module
import groupsym.lifted as lifted_module
from groupsym.actions import encode_state, save_state
from groupsym.cli import main
from groupsym.config import (
    ConfigError,
    config_hash,
    parse_config,
    serialize_config,
)


def minimal_gossip(**extra):
    doc = {"schema_version": 1, "application": "gossip", "seed": 7}
    doc.update(extra)
    return doc


class TestDefaults:
    def test_minimal_gossip_gets_documented_defaults(self):
        cfg = parse_config(minimal_gossip())
        assert cfg.steps == 1000
        assert cfg.schedule == {"kind": "random-gossip", "alpha_range": [0.3, 0.7]}
        assert cfg.params == {"m": 3, "n": 1, "edges": [[0, 1], [0, 2], [1, 2]]}
        assert cfg.initial_state == {"source": "random", "scale": 1.0}
        assert cfg.tolerances == {
            "residual": 1e-8,
            "delta_floor": 1e-6,
            "conserved": 1e-9,
        }
        assert cfg.trials is None

    def test_random_state_default_trials(self):
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "random-state",
                "params": {"group": {"kind": "cyclic", "n": 8}},
                "schedule": {"kind": "cyclic", "elements": [1]},
                "seed": 3,
            }
        )
        assert cfg.trials == 100000
        assert cfg.steps == 30

    def test_per_application_step_defaults(self):
        dd = parse_config(
            {
                "schema_version": 1,
                "application": "dd",
                "schedule": {"kind": "dd-bisection", "chooser": ["X", "Z"]},
                "seed": 1,
            }
        )
        assert dd.steps == 20
        dft = parse_config(
            {
                "schema_version": 1,
                "application": "dft",
                "params": {"N": 4},
                "schedule": {"kind": "cyclic", "elements": [1]},
                "initial_state": {"source": "inline", "data": [1.0, 0.0, 0.0, 0.0]},
            }
        )
        assert dft.steps == 500


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        cfg = parse_config(minimal_gossip(steps=123, output="out-dir"))
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_round_trip_preserves_every_application(self, tmp_path):
        table = {"order": 2, "table": [[0, 1], [1, 0]]}
        table_path = tmp_path / "z2.json"
        table_path.write_text(json.dumps(table))
        docs = [
            minimal_gossip(),
            {
                "schema_version": 1,
                "application": "prob-sym",
                "params": {"m": 2, "outcome_size": 3},
                "seed": 5,
            },
            {
                "schema_version": 1,
                "application": "quantum-gossip",
                "params": {"m": 2, "local_dim": 2},
                "seed": 5,
            },
            {
                "schema_version": 1,
                "application": "dft",
                "params": {"N": 8},
                "schedule": {"kind": "random-gossip", "support": [1, 3, 5]},
                "seed": 5,
            },
            {
                "schema_version": 1,
                "application": "random-state",
                "params": {"group": {"kind": "table", "path": str(table_path)}},
                "schedule": {"kind": "cyclic", "elements": [1]},
                "seed": 5,
            },
            {
                "schema_version": 1,
                "application": "dd",
                "schedule": {"kind": "dd-bisection", "chooser": [1, 3], "alpha": 0.25},
                "params": {"dt": 0.01},
                "seed": 5,
            },
        ]
        for doc in docs:
            cfg = parse_config(doc, base_dir=str(tmp_path))
            again = parse_config(serialize_config(cfg), base_dir=str(tmp_path))
            assert again == cfg, doc["application"]

    def test_hash_changes_with_content(self):
        a = parse_config(minimal_gossip(steps=100))
        b = parse_config(minimal_gossip(steps=101))
        assert config_hash(a) != config_hash(b)


class TestStrictKeys:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            parse_config(minimal_gossip(bogus=1))

    def test_unknown_params_key_names_path(self):
        with pytest.raises(ConfigError, match=r"params: unknown key 'spin'"):
            parse_config(minimal_gossip(params={"m": 3, "spin": 2}))

    def test_unknown_schedule_key_names_path(self):
        with pytest.raises(ConfigError, match=r"schedule: unknown key 'beta'"):
            parse_config(
                minimal_gossip(schedule={"kind": "cyclic", "elements": [1], "beta": 2})
            )

    def test_unknown_tolerance_key(self):
        with pytest.raises(ConfigError, match=r"tolerances: unknown key 'slack'"):
            parse_config(minimal_gossip(tolerances={"slack": 0.1}))

    def test_missing_required_field_names_path(self):
        with pytest.raises(ConfigError, match=r"params: missing required key 'N'"):
            parse_config({"schema_version": 1, "application": "dft", "params": {}, "seed": 1})

    def test_missing_application(self):
        with pytest.raises(ConfigError, match="missing required key 'application'"):
            parse_config({"schema_version": 1})

    def test_unknown_application_lists_choices(self):
        with pytest.raises(ConfigError, match="unknown application 'magic'"):
            parse_config({"schema_version": 1, "application": "magic"})

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config({"schema_version": 2, "application": "gossip", "seed": 1})

    def test_type_mismatch_is_distinct_from_missing(self):
        with pytest.raises(ConfigError, match=r"steps: expected an integer"):
            parse_config(minimal_gossip(steps="many"))
        with pytest.raises(ConfigError, match=r"params\.m: expected an integer"):
            parse_config(minimal_gossip(params={"m": "three"}))


class TestSeedRequirements:
    def test_randomized_schedule_requires_seed(self):
        doc = minimal_gossip()
        del doc["seed"]
        doc["initial_state"] = {"source": "inline", "data": [0.0, 1.0, 2.0]}
        with pytest.raises(ConfigError, match="seed: required"):
            parse_config(doc)

    def test_schedule_local_seed_suffices(self):
        doc = minimal_gossip()
        del doc["seed"]
        doc["schedule"] = {"kind": "random-gossip", "seed": 42}
        doc["initial_state"] = {"source": "inline", "data": [0.0, 1.0, 2.0]}
        cfg = parse_config(doc)
        assert cfg.seed is None
        assert cfg.schedule["seed"] == 42

    def test_random_initial_state_requires_seed(self):
        doc = minimal_gossip(schedule={"kind": "cyclic", "elements": [[0, 1]]})
        del doc["seed"]
        with pytest.raises(ConfigError, match="initial state is randomized"):
            parse_config(doc)

    def test_random_state_application_requires_seed(self):
        with pytest.raises(ConfigError, match="trial sampling is randomized"):
            parse_config(
                {
                    "schema_version": 1,
                    "application": "random-state",
                    "params": {"group": {"kind": "cyclic", "n": 4}},
                    "schedule": {"kind": "cyclic", "elements": [1]},
                    "initial_state": {"source": "inline", "data": [1.0, 0.0, 0.0, 0.0]},
                }
            )

    def test_seed_bounds(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(minimal_gossip(seed=-1))
        with pytest.raises(ConfigError, match="seed"):
            parse_config(minimal_gossip(seed=2**64))
        with pytest.raises(ConfigError, match="seed"):
            parse_config(minimal_gossip(seed=True))


class TestParams:
    def test_edges_out_of_range(self):
        with pytest.raises(ConfigError, match=r"params\.edges\[0\]: nodes must lie in 0\.\.2"):
            parse_config(minimal_gossip(params={"m": 3, "edges": [[0, 3]]}))

    def test_edges_self_loop(self):
        with pytest.raises(ConfigError, match="distinct nodes"):
            parse_config(minimal_gossip(params={"m": 3, "edges": [[1, 1]]}))

    def test_edges_malformed(self):
        with pytest.raises(ConfigError, match=r"params\.edges\[1\]"):
            parse_config(minimal_gossip(params={"m": 3, "edges": [[0, 1], [2]]}))

    def test_quantum_dimension_cap_at_parse(self):
        with pytest.raises(ConfigError, match="exceeds the dense cap"):
            parse_config(
                {
                    "schema_version": 1,
                    "application": "quantum-gossip",
                    "params": {"m": 4, "local_dim": 3},
                    "seed": 1,
                }
            )

    def test_prob_sym_requires_m_and_size(self):
        with pytest.raises(ConfigError, match="missing required key 'outcome_size'"):
            parse_config(
                {"schema_version": 1, "application": "prob-sym", "params": {"m": 2}, "seed": 1}
            )

    def test_group_spec_kinds(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown group kind"):
            parse_config(
                {
                    "schema_version": 1,
                    "application": "random-state",
                    "params": {"group": {"kind": "dihedral", "n": 4}},
                    "schedule": {"kind": "cyclic", "elements": [1]},
                    "seed": 1,
                }
            )
        with pytest.raises(ConfigError, match="referenced file does not exist"):
            parse_config(
                {
                    "schema_version": 1,
                    "application": "random-state",
                    "params": {"group": {"kind": "table", "path": "nope.json"}},
                    "schedule": {"kind": "cyclic", "elements": [1]},
                    "seed": 1,
                },
                base_dir=str(tmp_path),
            )

    def test_dd_params(self):
        with pytest.raises(ConfigError, match=r"params\.dt: must be > 0"):
            parse_config(
                {
                    "schema_version": 1,
                    "application": "dd",
                    "params": {"dt": 0.0},
                    "schedule": {"kind": "dd-bisection", "chooser": [1]},
                    "seed": 1,
                }
            )


class TestSchedules:
    def test_alpha_must_be_interior(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError, match=r"schedule\.alpha"):
                parse_config(
                    minimal_gossip(
                        schedule={"kind": "cyclic", "elements": [[0, 1]], "alpha": alpha}
                    )
                )

    def test_alpha_range_ordering(self):
        with pytest.raises(ConfigError, match="0 < lo < hi < 1"):
            parse_config(
                minimal_gossip(schedule={"kind": "random-gossip", "alpha_range": [0.7, 0.3]})
            )

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown schedule kind 'drift'"):
            parse_config(minimal_gossip(schedule={"kind": "drift"}))

    def test_dd_requires_dd_bisection(self):
        with pytest.raises(ConfigError, match="dd runs require"):
            parse_config(
                {
                    "schema_version": 1,
                    "application": "dd",
                    "schedule": {"kind": "cyclic", "elements": [1]},
                    "seed": 1,
                }
            )

    def test_dd_bisection_only_for_dd(self):
        with pytest.raises(ConfigError, match="only apply to dd runs"):
            parse_config(
                minimal_gossip(schedule={"kind": "dd-bisection", "chooser": [1]})
            )

    def test_support_required_for_index_based_apps(self):
        with pytest.raises(ConfigError, match=r"schedule\.support: required"):
            parse_config(
                {
                    "schema_version": 1,
                    "application": "dft",
                    "params": {"N": 4},
                    "schedule": {"kind": "random-gossip"},
                    "seed": 1,
                }
            )

    def test_custom_sequence_needs_rows_xor_path(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one of 'rows' or 'path'"):
            parse_config(minimal_gossip(schedule={"kind": "custom-sequence"}))
        csv_path = tmp_path / "sig.csv"
        csv_path.write_text("1,0,0,0,0,0\n")
        with pytest.raises(ConfigError, match="exactly one of 'rows' or 'path'"):
            parse_config(
                minimal_gossip(
                    schedule={
                        "kind": "custom-sequence",
                        "rows": [[1, 0, 0, 0, 0, 0]],
                        "path": str(csv_path),
                    }
                )
            )

    def test_custom_sequence_policy(self):
        with pytest.raises(ConfigError, match=r"schedule\.policy"):
            parse_config(
                minimal_gossip(
                    schedule={
                        "kind": "custom-sequence",
                        "rows": [[1, 0, 0, 0, 0, 0]],
                        "policy": "pad",
                    }
                )
            )

    def test_custom_sequence_missing_file(self):
        with pytest.raises(ConfigError, match="referenced file does not exist"):
            parse_config(
                minimal_gossip(schedule={"kind": "custom-sequence", "path": "absent.csv"})
            )

    def test_element_entries_validated(self):
        with pytest.raises(ConfigError, match=r"schedule\.elements\[0\]"):
            parse_config(minimal_gossip(schedule={"kind": "cyclic", "elements": [True]}))
        with pytest.raises(ConfigError, match=r"schedule\.elements\[0\]"):
            parse_config(minimal_gossip(schedule={"kind": "cyclic", "elements": [-2]}))
        with pytest.raises(ConfigError, match=r"schedule\.elements\[1\]"):
            parse_config(
                minimal_gossip(schedule={"kind": "cyclic", "elements": [1, [0, 0]]})
            )


class TestInitialStateAndFiles:
    def test_inline_and_scale(self):
        cfg = parse_config(
            minimal_gossip(initial_state={"source": "random", "scale": 2.5})
        )
        assert cfg.initial_state == {"source": "random", "scale": 2.5}
        with pytest.raises(ConfigError, match=r"initial_state\.scale"):
            parse_config(minimal_gossip(initial_state={"source": "random", "scale": 0.0}))

    def test_unknown_source(self):
        with pytest.raises(ConfigError, match=r"initial_state\.source"):
            parse_config(minimal_gossip(initial_state={"source": "guess"}))

    def test_file_must_exist_at_parse_time(self, tmp_path):
        with pytest.raises(ConfigError, match="referenced file does not exist"):
            parse_config(
                minimal_gossip(initial_state={"source": "file", "path": "missing.json"}),
                base_dir=str(tmp_path),
            )
        state = tmp_path / "x0.json"
        save_state(state, np.arange(3.0))
        cfg = parse_config(
            minimal_gossip(initial_state={"source": "file", "path": "x0.json"}),
            base_dir=str(tmp_path),
        )
        assert cfg.initial_state["path"] == "x0.json"
        assert cfg.resolve("x0.json") == str(state)

    def test_paths_resolve_relative_to_config_file(self, tmp_path):
        state = tmp_path / "x0.json"
        save_state(state, np.arange(3.0))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            json.dumps(
                minimal_gossip(initial_state={"source": "file", "path": "x0.json"})
            )
        )
        cfg = parse_config(str(cfg_path))
        assert cfg.base_dir == str(tmp_path)

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda p: p.update(base64=p["base64"][:-6]), "base64"),
            (lambda p: p.update(shape=[9, 9]), "expected 648"),
            (lambda p: p.update(dtype="<i8"), "dtype"),
            (lambda p: p.update(shape=[100, 1], dtype="<c16"), "expected 1600"),
            (lambda p: p.pop("shape"), "missing keys"),
        ],
    )
    def test_bad_inline_payload_fails_at_parse_time(self, corrupt, match, monkeypatch):
        built = []
        monkeypatch.setattr(groups_module.FiniteGroup, "__init__", lambda *a, **k: built.append(a))
        payload = encode_state(np.linspace(0.0, 1.0, 100))
        corrupt(payload)
        with pytest.raises(ConfigError, match=rf"initial_state\.data: .*{match}"):
            parse_config(
                minimal_gossip(
                    params={"m": 4, "n": 25}, initial_state={"source": "inline", "data": payload}
                )
            )
        assert built == []

    def test_good_inline_binary_payload_runs(self, tmp_path):
        x = np.linspace(0.0, 1.0, 100)
        cfg = parse_config(
            minimal_gossip(
                params={"m": 4, "n": 25},
                initial_state={"source": "inline", "data": encode_state(x)},
                steps=5,
            )
        )
        art = harness_module.execute(cfg, out_dir=str(tmp_path / "run"))
        assert art.result.steps_run == 5

    def test_config_file_must_exist(self):
        with pytest.raises(ConfigError, match="config file does not exist"):
            parse_config("no-such-config.json")

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{broken")


class TestMiscValidation:
    def test_steps_bounds(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config(minimal_gossip(steps=-1))
        with pytest.raises(ConfigError, match="steps"):
            parse_config(minimal_gossip(steps=10_000_001))

    def test_trials_only_for_random_state(self):
        with pytest.raises(ConfigError, match="trials: only applies"):
            parse_config(minimal_gossip(trials=100))

    def test_tolerances_positive(self):
        with pytest.raises(ConfigError, match=r"tolerances\.residual"):
            parse_config(minimal_gossip(tolerances={"residual": -1e-8}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        ["tolerances.residual", "tolerances.delta_floor", "params.dt", "initial_state.scale"],
    )
    def test_non_finite_numbers_are_refused(self, field, value):
        # json parses NaN and Infinity; none of them is a usable tolerance,
        # step or scale
        if field == "params.dt":
            doc = {
                "schema_version": 1,
                "application": "dd",
                "params": {"dt": value},
                "schedule": {"kind": "dd-bisection", "chooser": [1]},
                "seed": 1,
            }
        elif field == "initial_state.scale":
            doc = minimal_gossip(initial_state={"source": "random", "scale": value})
        else:
            doc = minimal_gossip(tolerances={field.split(".")[1]: value})
        message = field.replace(".", r"\.") + ": must be a finite number"
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(doc))

    def test_output_must_be_string(self):
        with pytest.raises(ConfigError, match="output"):
            parse_config(minimal_gossip(output=7))


class TestMemoryPreflight:
    """Configs whose dense arrays cannot fit are rejected at parse time.

    The memory probe is patched, so the verdicts do not depend on the host,
    and parsing allocates no group, table or orbit.
    """

    GIB = 2**30

    def with_memory(self, monkeypatch, gib):
        monkeypatch.setattr(config_module, "physical_memory_bytes", lambda: gib * self.GIB)

    def test_degree_eight_is_rejected_only_where_the_table_is_built(self, monkeypatch):
        self.with_memory(monkeypatch, 8)
        # gossip ranks its support's translation rows, never the 6 GB table
        assert parse_config(minimal_gossip(params={"m": 8})).params["m"] == 8
        # random-state runs the regular action, which reads the dense table
        with pytest.raises(ConfigError, match=r"params: .*table 6\.06"):
            parse_config(
                {
                    "schema_version": 1,
                    "application": "random-state",
                    "params": {"group": {"kind": "symmetric", "m": 8}},
                    "schedule": {"kind": "random-gossip", "support": [1, 2]},
                    "seed": 1,
                }
            )
        parse_config(minimal_gossip(params={"m": 7}))

    def test_support_rows_follow_the_schedule(self):
        parts = config_module._dense_bytes
        edges = [[0, 1], [1, 2]]
        params = {"m": 8, "n": 1, "edges": edges}
        row = 4 * 40320
        random = {"kind": "random-gossip", "alpha_range": [0.3, 0.7]}
        assert parts("gossip", params, random, 10)["rows"] == row * 2 * (2 * 2 + 1)
        cyclic = {"kind": "cyclic", "elements": [1, 2, 3], "alpha": 0.5}
        assert parts("gossip", params, cyclic, 10)["rows"] == row * 2 * (2 * 3 + 1)
        custom = {"kind": "custom-sequence", "policy": "cycle", "rows": [[1.0]]}
        assert parts("gossip", params, custom, 10)["rows"] == row * 40320
        # quantum gossip gathers its orbit, so it is charged rows, not the S_5 table
        quantum = parts("quantum-gossip", {"m": 5, "local_dim": 2, "edges": edges}, random, 10)
        assert "table" not in quantum
        assert quantum["rows"] == 4 * 120 * 2 * (2 * 2 + 1)

    def test_spectral_keeps_its_dense_guard(self, monkeypatch):
        self.with_memory(monkeypatch, 8)
        cfg = parse_config(minimal_gossip(params={"m": 8}, steps=10))

        def no_build(config):
            raise AssertionError("the spectral guard must fire before the group is built")

        monkeypatch.setattr(harness_module, "_build_run", no_build)
        with pytest.raises(ConfigError, match=r"table 6\.06.*transition 24\.2"):
            harness_module.spectral_run(cfg)

    def test_certify_horizon_is_charged_before_the_group_is_built(self, monkeypatch, tmp_path):
        # the certificate scan holds a (horizon, |G|) float64 window array:
        # 7.51 GiB for 200,000 steps of S7
        self.with_memory(monkeypatch, 8)
        doc = minimal_gossip(params={"m": 7})
        real_build = harness_module._build_run

        def no_build(config):
            raise AssertionError("the horizon must be charged before the group is built")

        monkeypatch.setattr(harness_module, "_build_run", no_build)
        with pytest.raises(ConfigError, match=r"horizon: .*windows 7\.51"):
            harness_module.certify_run(parse_config(doc), 5, horizon=200_000)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["certify", str(path), "--max-T", "5", "--horizon", "200000"]) == 4
        # a horizon that fits scans as before
        monkeypatch.setattr(harness_module, "_build_run", real_build)
        outcome = harness_module.certify_run(
            parse_config(minimal_gossip(params={"m": 5})), 40, horizon=1000
        )
        assert outcome == {
            "T": 27,
            "delta": 0.0017734611300948611,
            "satisfied": True,
            "witness": None,
            "horizon": 1000,
            "group_order": 120,
            "rho": 0.7871846643886167,
        }

    def test_dft_1024_is_charged_its_kernel_not_its_orbit(self, monkeypatch):
        doc = {
            "schema_version": 1,
            "application": "dft",
            "params": {"N": 1024},
            "schedule": {"kind": "cyclic", "elements": [1]},
            "seed": 1,
        }
        # the 16 GiB orbit matrix is never built: eight 16 MiB arrays
        parts = config_module._dense_bytes("dft", {"N": 1024}, doc["schedule"], 500)
        assert "orbit" not in parts
        assert parts["kernel"] == 8 * 16 * 1024**2
        self.with_memory(monkeypatch, 8)
        assert parse_config(doc).params["N"] == 1024
        self.with_memory(monkeypatch, 0.25)
        with pytest.raises(ConfigError, match=r"params: .*kernel 0\.12"):
            parse_config(doc)

    def test_verdict_follows_physical_memory(self, monkeypatch):
        self.with_memory(monkeypatch, 64)
        assert parse_config(minimal_gossip(params={"m": 8})).params["m"] == 8
        self.with_memory(monkeypatch, 0.001)
        with pytest.raises(ConfigError, match="physical memory"):
            parse_config(minimal_gossip(params={"m": 6}, steps=1000))

    def test_long_runs_count_their_weight_series(self, monkeypatch):
        self.with_memory(monkeypatch, 8)
        with pytest.raises(ConfigError, match=r"weights 18\.78"):
            parse_config(minimal_gossip(params={"m": 7}, steps=500_000))

    def test_signal_is_charged_its_compact_rows(self, monkeypatch):
        # one float64 per element per step was 4.8 GiB of signal and trajectory
        self.with_memory(monkeypatch, 8)
        cfg = parse_config(minimal_gossip(params={"m": 8}, steps=8000))
        parts = config_module._dense_bytes(cfg.application, cfg.params, cfg.schedule, cfg.steps)
        assert parts["weights"] == 8 * 40320 * 8001
        assert parts["signal"] == 16 * 2 * 8000
        subset = {"kind": "random-subset", "support": [1, 2, 3]}
        assert config_module._dense_bytes("gossip", cfg.params, subset, 10)["signal"] == 16 * 4 * 10

    @staticmethod
    def sampled_run_peak(steps):
        """The config, its charged parts and the traced peak of an S3 walk of 10^6 trials."""
        cfg = parse_config(
            {
                "schema_version": 1,
                "application": "random-state",
                "params": {"group": {"kind": "symmetric", "m": 3}},
                "schedule": {"kind": "random-subset", "support": [1, 2, 3]},
                "steps": steps,
                "trials": 1_000_000,
                "seed": 1,
            }
        )
        parts = config_module._dense_bytes(
            cfg.application, cfg.params, cfg.schedule, cfg.steps, cfg.trials
        )
        tracemalloc.start()
        try:
            harness_module.run_from_config(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return cfg, parts, peak

    def test_sampled_walk_peaks_within_its_charge(self):
        cfg, parts, peak = self.sampled_run_peak(6)
        # two workers' blocks of 24 bytes a trial and their two composed tables,
        # however many trials run
        blocks = applications_module.WALK_BLOCK_TRIALS
        assert parts["trials"] == 2 * (24 * blocks + 2 * (lifted_module.BLOCK_BYTES // 16))
        assert applications_module.walk_bytes(config_module.MAX_TRIALS) == parts["trials"]
        # the allowance covers the group, the signal and the interpreter's own
        assert peak <= sum(parts.values()) + 2**20

    def test_walk_endpoints_are_counted_in_slices(self):
        cfg, parts, peak = self.sampled_run_peak(0)
        allowance = sum(parts.values()) - parts["trials"] + 2**20
        # each worker counts the endpoints of its own block: with no steps it
        # draws nothing, so it holds its int32 walk and bincount's intp cast
        # of it, 12 bytes a trial; one int32 walk of every trial would not fit
        blocks = 2 * 12 * applications_module.WALK_BLOCK_TRIALS
        assert blocks + allowance < 4 * cfg.trials
        assert peak <= blocks + allowance

    def test_walk_peaks_at_one_block_of_trials_per_worker(self):
        cfg, parts, peak = self.sampled_run_peak(6)
        allowance = sum(parts.values()) - parts["trials"] + 2**20
        # two workers, each holding one block of trials and its composed tables
        assert parts["trials"] == applications_module.walk_bytes(
            applications_module.WALK_BLOCK_TRIALS
        )
        assert parts["trials"] < 4 * cfg.trials
        assert peak <= parts["trials"] + allowance

    def test_unknown_memory_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(config_module, "physical_memory_bytes", lambda: None)
        assert parse_config(minimal_gossip(params={"m": 8})).params["m"] == 8

    def test_probe_reads_the_host(self):
        assert config_module.physical_memory_bytes() > 0


def test_config_hash_is_the_canonical_sha256_of_the_document():
    cfg = parse_config(minimal_gossip())
    assert config_hash(cfg) == config_module.canonical_sha256(cfg.to_dict())
    assert config_module.canonical_sha256({"b": 1, "a": [1, 2]}) == (
        config_module.canonical_sha256({"a": [1, 2], "b": 1})
    )


def test_each_application_is_declared_once():
    """Only the application table tells the applications apart.

    A comparison with an application's name anywhere else in the package
    is a second declaration of what that application is.  Two places may
    name one: ``_check_dft``, which checks the dft claim, and
    ``spectral_run``, a verb only gossip configs have.
    """
    names = set(config_module.APPLICATIONS)
    allowed = {"APPLICATION_TABLE", "_check_dft", "spectral_run"}
    package = os.path.dirname(config_module.__file__)
    found = []

    def literals(node):
        if isinstance(node, ast.Constant):
            yield node.value
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                yield from literals(element)

    def walk(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and scope == "<module>":
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            scope = next((t.id for t in targets if isinstance(t, ast.Name)), scope)
        if isinstance(node, ast.Compare) and scope not in allowed:
            operands = [node.left, *node.comparators]
            if any(value in names for operand in operands for value in literals(operand)):
                found.append(f"{path}:{node.lineno} in {scope}")
        for child in ast.iter_child_nodes(node):
            walk(child, path, scope)

    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path) as fh:
                walk(ast.parse(fh.read(), path), name, "<module>")
    assert found == []
