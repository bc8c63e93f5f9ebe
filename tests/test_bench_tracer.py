"""The benchmark's tracer still finds every groupsym function it wraps.

``bench/tracer.py`` names the functions and methods it times by module and
attribute, so a rename or a removed keyword inside groupsym would silently
break ``bench/run.py --trace 1``.  The tracer is loaded from its file and
never modified.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

import groupsym.applications
from groupsym.config import parse_config
from groupsym.harness import execute

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py"
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("groupsym_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    targets = [t for entries in tracer.FUNCTION_SPANS.values() for t in entries]
    for module_name, attr in targets:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    methods = [t for entries in tracer.METHOD_SPANS.values() for t in entries]
    methods += list(tracer.METHOD_COUNTS.values())
    for module_name, cls_name, attr in methods:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert callable(getattr(cls, attr)), (module_name, cls_name, attr)


def test_traced_run_sees_the_engine_and_its_monitors(tmp_path):
    tracer_module = load_tracer()
    engine = groupsym.applications.run_symmetrization
    config = parse_config(
        {
            "schema_version": 1,
            "application": "quantum-gossip",
            "params": {"m": 3, "local_dim": 2},
            "seed": 3,
        }
    )
    tracer = tracer_module.Tracer(0)
    tracer.install()
    try:
        execute(config, out_dir=str(tmp_path / "art"))
    finally:
        tracer.uninstall()
    assert groupsym.applications.run_symmetrization is engine
    names = {span[0] for span in tracer.spans}
    assert {"harness.run_from_config", "applications.engine", "actions.build"} <= names
    layers = tracer.layers()
    # monitors reach the engine as the monitors= keyword, where the tracer wraps them
    assert layers["applications.monitors_s"] > 0
    assert layers["groups.builds"] >= 1


def traced_layers(doc, out_dir):
    tracer = load_tracer().Tracer(0)
    tracer.install()
    try:
        execute(parse_config(doc), out_dir=out_dir)
    finally:
        tracer.uninstall()
    return tracer.layers()


def test_traced_gossip_run_times_the_step_and_counts_its_applies(tmp_path):
    # the step kernel of a permutation action still goes through apply, where
    # the tracer counts actions.apply_calls
    layers = traced_layers(
        {"schema_version": 1, "application": "gossip", "params": {"m": 3, "n": 2}, "seed": 3},
        str(tmp_path / "art"),
    )
    assert layers["actions.step_s"] > 0
    assert layers["actions.apply_calls"] > 0


def test_traced_dft_run_keeps_its_step_in_the_engine_span(tmp_path):
    # a dft run steps, and measures its residual, on the N-vector of its
    # Fourier form inside the engine: no actions.step or
    # fixed_point_residual call, so their layers read zero and the engine's
    # self time holds the loop
    doc = {
        "schema_version": 1,
        "application": "dft",
        "params": {"N": 8},
        "schedule": {"kind": "random-gossip", "support": list(range(1, 8))},
        "seed": 3,
    }
    layers = traced_layers(doc, str(tmp_path / "art"))
    assert layers["actions.step_s"] == 0 and layers["actions.residual_s"] == 0
    assert layers["applications.engine_self_s"] > 0
