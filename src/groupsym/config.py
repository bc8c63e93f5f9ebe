"""Run configuration: strict parsing, defaults, and canonical serialization.

A run config is a single JSON document with a schema_version.  Parsing is
strict: unknown keys anywhere are rejected by name, required fields are
reported with their path, and every file the config references must exist at
parse time.  parse -> serialize -> parse is the identity on the normalized
form.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from numpy.random import SeedSequence

from . import actions, applications, groups
from .actions import decode_state
from .applications import OUTCOME_AXES_CAP, OUTCOME_SIZE_CAP, QUANTUM_DIM_CAP, walk_bytes
from .groups import MAX_SYMMETRIC_DEGREE

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "config_hash",
    "canonical_sha256",
    "physical_memory_bytes",
    "check_spectral_memory",
    "APPLICATION_TABLE",
    "APPLICATIONS",
    "SCHEDULE_KINDS",
    "DEFAULT_TOLERANCES",
]

SCHEMA_VERSION = 1
SCHEDULE_KINDS = (
    "cyclic",
    "random-gossip",
    "random-subset",
    "dd-bisection",
    "custom-sequence",
)
RANDOM_SCHEDULE_KINDS = ("random-gossip", "random-subset")
DEFAULT_ALPHA_RANGE = [0.3, 0.7]
DEFAULT_TOLERANCES = {"residual": 1e-8, "delta_floor": 1e-6, "conserved": 1e-9}
DEFAULT_TRIALS = 100000
MAX_STEPS = 1_000_000
MAX_TRIALS = 10_000_000
# A run's dense arrays may take at most this share of physical memory; the
# rest covers their transient copies, the interpreter and the rest of the host.
MEMORY_SHARE = 0.5
# dft runs in the Fourier basis of the DFT action and never forms the orbit,
# nor a state per step.  At most seven N x N complex arrays are live at once:
# the action's gain, diagonal and shift tables (float64 and int64, half an
# array each) and the one buffer its mixture and residual share; the initial
# state, its transform and the orbit average; the final state, formed once
# at the end; and the tolerance's |x0| (half an array).  The result write
# holds fewer: the final state, the orbit average, their base64 texts
# (four thirds of an array each) and the encoder's copy of one text.  They
# are charged as eight.
DFT_KERNEL_ARRAYS = 8


class ConfigError(ValueError):
    """Configuration rejected; message carries the path to the offending field."""


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}" if path else message)


def _require_keys(obj: dict, allowed, required: Tuple[str, ...], path: str):
    """Fail on a key outside ``allowed``, then on the first of ``required``,
    in its declared order, that ``obj`` lacks."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            _fail(path, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            _fail(path, f"missing required key {key!r}")


def _as_int(value, path: str, *, lo=None, hi=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        _fail(path, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        _fail(path, f"must be <= {hi}, got {value}")
    return value


def _as_float(value, path: str, *, positive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        _fail(path, f"must be a finite number, got {value}")
    if positive and value <= 0.0:
        _fail(path, f"must be > 0, got {value}")
    return value


def _as_alpha(value, path: str) -> float:
    alpha = _as_float(value, path)
    if not 0.0 < alpha < 1.0:
        _fail(path, f"must lie strictly inside (0, 1), got {alpha}")
    return alpha


def _edges(params: dict, m: int) -> list:
    path = "params.edges"  # by default, every pair of the m nodes
    value = params.get("edges", [[j, k] for j in range(m) for k in range(j + 1, m)])
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of [j, k] pairs")
    out = []
    for i, edge in enumerate(value):
        if (
            not isinstance(edge, (list, tuple))
            or len(edge) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in edge)
        ):
            _fail(f"{path}[{i}]", f"expected a [j, k] integer pair, got {edge!r}")
        j, k = edge
        if not (0 <= j < m and 0 <= k < m):
            _fail(f"{path}[{i}]", f"nodes must lie in 0..{m - 1}, got ({j}, {k})")
        if j == k:
            _fail(f"{path}[{i}]", f"edge must join two distinct nodes, got ({j}, {k})")
        out.append([j, k])
    return out


def _check_file(rel_path, base_dir: str, path: str) -> str:
    if not isinstance(rel_path, str) or not rel_path:
        _fail(path, f"expected a file path string, got {rel_path!r}")
    resolved = rel_path if os.path.isabs(rel_path) else os.path.join(base_dir, rel_path)
    if not os.path.isfile(resolved):
        _fail(path, f"referenced file does not exist: {resolved}")
    return rel_path


@dataclass
class RunConfig:
    """Normalized, validated run description."""

    application: str
    params: dict
    schedule: dict
    initial_state: dict
    steps: int
    trials: Optional[int]
    seed: Optional[int]
    tolerances: dict
    output: Optional[str]
    base_dir: str = field(compare=False, default=".")

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "application": self.application,
            "params": copy.deepcopy(self.params),
            "schedule": copy.deepcopy(self.schedule),
            "initial_state": copy.deepcopy(self.initial_state),
            "steps": self.steps,
            "tolerances": dict(self.tolerances),
        }
        if self.trials is not None:
            out["trials"] = self.trials
        if self.seed is not None:
            out["seed"] = self.seed
        if self.output is not None:
            out["output"] = self.output
        return out

    def resolve(self, rel_path: str) -> str:
        if os.path.isabs(rel_path):
            return rel_path
        return os.path.join(self.base_dir, rel_path)


# -- the applications ------------------------------------------------------------
#
# A parameter rule validates a config's raw ``params`` object, with the
# directory its files resolve against, and returns its normalized form.


def _gossip_params(params, base_dir: str) -> dict:
    _require_keys(params, {"m", "n", "edges"}, (), "params")
    m = _as_int(params.get("m", 3), "params.m", lo=2, hi=MAX_SYMMETRIC_DEGREE)
    n = _as_int(params.get("n", 1), "params.n", lo=1, hi=64)
    return {"m": m, "n": n, "edges": _edges(params, m)}


def _prob_sym_params(params, base_dir: str) -> dict:
    _require_keys(params, {"m", "outcome_size", "edges"}, ("m", "outcome_size"), "params")
    m = _as_int(params["m"], "params.m", lo=1, hi=OUTCOME_AXES_CAP)
    size = _as_int(params["outcome_size"], "params.outcome_size", lo=1, hi=OUTCOME_SIZE_CAP)
    return {"m": m, "outcome_size": size, "edges": _edges(params, m)}


def _quantum_gossip_params(params, base_dir: str) -> dict:
    _require_keys(params, {"m", "local_dim", "edges"}, ("m", "local_dim"), "params")
    m = _as_int(params["m"], "params.m", lo=1, hi=6)
    d = _as_int(params["local_dim"], "params.local_dim", lo=2, hi=64)
    if d**m > QUANTUM_DIM_CAP:
        _fail("params", f"total dimension {d**m} exceeds the dense cap {QUANTUM_DIM_CAP}")
    return {"m": m, "local_dim": d, "edges": _edges(params, m)}


def _dft_params(params, base_dir: str) -> dict:
    _require_keys(params, {"N"}, ("N",), "params")
    return {"N": _as_int(params["N"], "params.N", lo=1, hi=1024)}


def _random_state_params(params, base_dir: str) -> dict:
    _require_keys(params, {"group"}, ("group",), "params")
    spec, path = params["group"], "params.group"
    _require_keys(spec, {"kind", "n", "m", "path"}, ("kind",), path)
    kind = spec["kind"]
    if kind == "cyclic":
        _require_keys(spec, {"kind", "n"}, ("kind", "n"), path)
        return {"group": {"kind": "cyclic", "n": _as_int(spec["n"], f"{path}.n", lo=1, hi=1024)}}
    if kind == "symmetric":
        _require_keys(spec, {"kind", "m"}, ("kind", "m"), path)
        m = _as_int(spec["m"], f"{path}.m", lo=1, hi=MAX_SYMMETRIC_DEGREE)
        return {"group": {"kind": "symmetric", "m": m}}
    if kind == "table":
        _require_keys(spec, {"kind", "path"}, ("kind", "path"), path)
        return {
            "group": {"kind": "table", "path": _check_file(spec["path"], base_dir, f"{path}.path")}
        }
    _fail(f"{path}.kind", f"unknown group kind {kind!r}")


def _dd_params(params, base_dir: str) -> dict:
    _require_keys(params, {"dt", "frame_cap"}, (), "params")
    out = {}
    if "dt" in params:
        out["dt"] = _as_float(params["dt"], "params.dt", positive=True)
    if "frame_cap" in params:
        out["frame_cap"] = _as_int(params["frame_cap"], "params.frame_cap", lo=0, hi=20)
    return out


def _spec_order(spec: dict) -> Optional[int]:
    if spec["kind"] == "cyclic":
        return spec["n"]
    if spec["kind"] == "symmetric":
        return math.factorial(spec["m"])
    return None  # a table file is capped at a small validated order on load


def _spec_group(config: RunConfig) -> groups.FiniteGroup:
    spec = config.params["group"]
    if spec["kind"] == "cyclic":
        return groups.cyclic_group(spec["n"])
    if spec["kind"] == "symmetric":
        return groups.symmetric_group(spec["m"])
    return groups.group_from_json(config.resolve(spec["path"]))


SEED_SCHEDULE = 0
SEED_STATE = 1
SEED_TRIALS = 2


def _substream(seed: int, key: int) -> int:
    """Derive an independent 64-bit stream seed from the top-level seed."""
    ss = SeedSequence(seed, spawn_key=(key,))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Application:
    """What one application is: parsing, the memory preflight, building and running read it.

    An entry calls runners, action constructors and group builders through
    their module's attribute when it runs and never holds one, because the
    benchmark's tracer times them by rebinding those attributes.
    """

    steps: int  # the default step count
    params: Callable[[object, str], dict]  # the parameter rule: (raw params, base_dir) -> params
    order: Callable[[dict], Optional[int]]  # |G|; None where only loading a file tells it
    group: Callable[[RunConfig], groups.FiniteGroup]
    state: Callable[[dict, int], Tuple[int, ...]]  # the initial state's shape, from params and |G|
    kind: str  # its flavor (harness._initial_array); with the shape, this sets its bytes
    run: Callable[..., applications.ExperimentResult]  # (config, group, schedule, x0)
    # on m nodes: schedules name [j, k] edges, the edge set is the default
    # support, and the run ranks translation rows instead of holding a table
    on_nodes: bool = False
    schedule: Optional[str] = None  # the one schedule kind it accepts
    samples: bool = False  # draws ``trials``
    charge: Optional[Callable[[dict], dict]] = None  # its state arrays, in place of the orbit


# the applications on m nodes run on S_m
_ON_NODES = dict(
    order=lambda p: math.factorial(p["m"]),
    group=lambda c: groups.symmetric_group(c.params["m"]),
    on_nodes=True,
)

# One record per application, in the order messages list them.
APPLICATION_TABLE: Dict[str, Application] = {
    "gossip": Application(
        steps=1000, params=_gossip_params, **_ON_NODES, kind="real",
        state=lambda p, order: (p["m"] * p["n"],),
        run=lambda c, group, schedule, x0: applications.run_gossip_consensus(
            c.params["m"], c.params["n"], c.params["edges"], schedule, x0, c.steps,
            threshold=c.tolerances["residual"],
        ),
    ),
    "prob-sym": Application(
        steps=500, params=_prob_sym_params, **_ON_NODES, kind="prob",
        state=lambda p, order: (p["outcome_size"],) * p["m"],
        run=lambda c, group, schedule, x0: applications.run_probability_symmetrization(
            c.params["m"], c.params["outcome_size"], c.params["edges"], schedule, x0, c.steps,
            threshold=c.tolerances["residual"],
        ),
    ),
    "quantum-gossip": Application(
        steps=500, params=_quantum_gossip_params, **_ON_NODES, kind="hermitian",
        state=lambda p, order: (p["local_dim"] ** p["m"],) * 2,
        run=lambda c, group, schedule, x0: applications.run_quantum_gossip(
            c.params["m"], c.params["local_dim"], c.params["edges"], schedule, x0, c.steps,
            threshold=c.tolerances["residual"],
        ),
    ),
    "dft": Application(
        steps=500, params=_dft_params, order=lambda p: p["N"], kind="complex",
        group=lambda c: groups.cyclic_group(c.params["N"]),
        state=lambda p, order: (p["N"],),
        run=lambda c, group, schedule, x0: applications.run_dft(
            c.params["N"], x0, schedule, c.steps, threshold=c.tolerances["residual"]
        ),
        charge=lambda p: {"kernel": DFT_KERNEL_ARRAYS * 16 * p["N"] ** 2},
    ),
    "random-state": Application(
        steps=30, params=_random_state_params, group=_spec_group, kind="real", samples=True,
        order=lambda p: _spec_order(p["group"]),
        state=lambda p, order: (order,),
        run=lambda c, group, schedule, x0: applications.run_random_state_generation(
            actions.regular_action(group), x0, schedule, c.steps, c.trials,
            _substream(c.seed, SEED_TRIALS),
        ),
    ),
    "dd": Application(
        steps=20, params=_dd_params, schedule="dd-bisection", kind="traceless-hermitian-2",
        order=lambda p: 4,  # the single-qubit Pauli quotient
        group=lambda c: actions.pauli_quotient_group(),
        state=lambda p, order: (2, 2),
        run=lambda c, group, schedule, x0: applications.run_dynamical_decoupling(
            group, x0, actions.pauli_matrices(), schedule, c.steps,
            threshold=c.tolerances["residual"], **c.params,
        ),
    ),
}
APPLICATIONS = tuple(APPLICATION_TABLE)


def _support_rows(schedule: dict, params: dict, order: int) -> int:
    """Translation rows an S_m run ranks on a permutation-backed S_m.

    One per support element and per inverse, plus the identity, doubled for
    the row cache's growth; a custom sequence's support is only known once
    its weights are loaded, so it is charged every row.
    """
    if schedule["kind"] == "cyclic":
        support = len(schedule["elements"])
    elif schedule["kind"] in RANDOM_SCHEDULE_KINDS:
        support = len(schedule.get("support", params["edges"]))
    else:
        return order
    return min(order, 2 * (2 * support + 1))


def _signal_width(schedule: dict, params: dict, order: int) -> int:
    """Entries K of a realized signal row: two for the kinds that mix the identity
    with one element, the support and the identity for random-subset, and all
    of G for a custom sequence, whose rows are only known once loaded."""
    if schedule["kind"] == "random-subset":
        return min(order, len(schedule.get("support", params.get("edges", ()))) + 1)
    return order if schedule["kind"] == "custom-sequence" else 2


def _dense_bytes(
    app: str, params: dict, schedule: dict, steps: int, trials: Optional[int] = None
) -> dict:
    """Bytes of the dense arrays a run of this config allocates, by structure.

    Keys: ``table`` (the int32 Cayley table, for groups that hold one and
    for the regular action of random-state, which is dense by nature) or
    ``rows`` (the int32 translation rows that an application on nodes
    ranks on demand), ``orbit`` (one state per group element) or the parts
    its record's ``charge`` names (dft's ``kernel``, the Fourier run's
    N x N complex arrays, see ``DFT_KERNEL_ARRAYS``), ``weights``
    (the lifted trajectory, one float64 per element per step), ``signal``
    (the realized signal: per step, an intp element and a float64 weight in
    each of its K columns, see ``_signal_width``) and ``trials`` (the sampled
    walk's blocks and composed tables on its two workers, see
    ``applications.walk_bytes``).  Empty when the group order is only known
    after loading a file.
    """
    record = APPLICATION_TABLE[app]
    order = record.order(params)
    if order is None:
        return {}
    if record.on_nodes:
        translations = {"rows": 4 * order * _support_rows(schedule, params, order)}
    else:
        translations = {"table": 4 * order * order}
    if record.charge:
        states = record.charge(params)
    else:
        itemsize = 8 if record.kind in ("real", "prob") else 16
        states = {"orbit": order * itemsize * math.prod(record.state(params, order))}
    return {
        **translations,
        **states,
        "weights": 8 * order * (steps + 1),
        "signal": (8 + 8) * _signal_width(schedule, params, order) * steps,
        "trials": walk_bytes(trials) if trials else 0,
    }


def physical_memory_bytes() -> Optional[int]:
    """Physical memory of the host, or None where the OS does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(parts: dict, path: str = "params") -> None:
    physical = physical_memory_bytes()
    need = sum(parts.values())
    if physical is None or need <= MEMORY_SHARE * physical:
        return
    gib = 2.0**30
    detail = ", ".join(
        f"{name} {size / gib:.2f}" for name, size in parts.items() if size >= 0.01 * gib
    )
    _fail(
        path,
        f"the run's dense arrays need about {need / gib:.1f} GiB ({detail} GiB), "
        f"more than {MEMORY_SHARE:.0%} of the {physical / gib:.1f} GiB of physical memory",
    )


def check_spectral_memory(config: RunConfig) -> None:
    """Reject a spectral comparison whose dense matrices cannot fit, before any is built.

    The comparison is dense by nature: it reads the group's int32 table and
    builds the (|G|, |G|) float64 lifted transition matrix, which the
    eigensolver copies once more.
    """
    order = APPLICATION_TABLE[config.application].order(config.params)
    _check_memory({"table": 4 * order * order, "transition": 2 * 8 * order * order})


def _validate_element_list(value, path: str, *, allow_edges: bool) -> list:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list")
    out = []
    for i, entry in enumerate(value):
        if isinstance(entry, bool):
            _fail(f"{path}[{i}]", f"expected an element index, got {entry!r}")
        elif isinstance(entry, int):
            if entry < 0:
                _fail(f"{path}[{i}]", f"element index must be >= 0, got {entry}")
            out.append(entry)
        elif allow_edges and isinstance(entry, (list, tuple)) and len(entry) == 2:
            j, k = entry
            if any(isinstance(v, bool) or not isinstance(v, int) for v in entry) or j == k:
                _fail(f"{path}[{i}]", f"expected an [j, k] edge pair, got {entry!r}")
            out.append([int(j), int(k)])
        elif isinstance(entry, str) and entry:
            out.append(entry)
        else:
            _fail(f"{path}[{i}]", f"unsupported element {entry!r}")
    return out


def _validate_alpha_range(value, path: str) -> list:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        _fail(path, f"expected [lo, hi], got {value!r}")
    lo, hi = float(value[0]), float(value[1])
    if not (0.0 < lo < hi < 1.0):
        _fail(path, f"must satisfy 0 < lo < hi < 1, got [{lo}, {hi}]")
    return [lo, hi]


def _validate_schedule(app: str, spec, base_dir: str) -> dict:
    path = "schedule"
    required = APPLICATION_TABLE[app].schedule
    if spec is None:
        if required:
            _fail(path, f"{app} runs require a {required} schedule")
        spec = {"kind": "random-gossip"}
    if not isinstance(spec, dict):
        _fail(path, f"expected an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in SCHEDULE_KINDS:
        _fail(f"{path}.kind", f"unknown schedule kind {kind!r}")
    allow_edges = APPLICATION_TABLE[app].on_nodes
    if required and kind != required:
        _fail(f"{path}.kind", f"{app} runs require kind {required!r}")
    if kind == "cyclic":
        _require_keys(spec, {"kind", "elements", "alpha"}, ("kind", "elements"), path)
        return {
            "kind": kind,
            "elements": _validate_element_list(
                spec["elements"], f"{path}.elements", allow_edges=allow_edges
            ),
            "alpha": _as_alpha(spec.get("alpha", 0.5), f"{path}.alpha"),
        }
    if kind in RANDOM_SCHEDULE_KINDS:
        _require_keys(spec, {"kind", "support", "alpha_range", "seed"}, ("kind",), path)
        out = {
            "kind": kind,
            "alpha_range": _validate_alpha_range(
                spec.get("alpha_range", list(DEFAULT_ALPHA_RANGE)), f"{path}.alpha_range"
            ),
        }
        if "support" in spec:
            out["support"] = _validate_element_list(
                spec["support"], f"{path}.support", allow_edges=allow_edges
            )
        elif not allow_edges:
            _fail(f"{path}.support", "required for this application")
        if "seed" in spec:
            out["seed"] = _as_int(spec["seed"], f"{path}.seed", lo=0, hi=2**64 - 1)
        return out
    if kind == "dd-bisection":
        if required != kind:
            _fail(f"{path}.kind", "dd-bisection schedules only apply to dd runs")
        _require_keys(spec, {"kind", "chooser", "alpha"}, ("kind", "chooser"), path)
        return {
            "kind": kind,
            "chooser": _validate_element_list(
                spec["chooser"], f"{path}.chooser", allow_edges=False
            ),
            "alpha": _as_alpha(spec.get("alpha", 0.5), f"{path}.alpha"),
        }
    # custom-sequence
    _require_keys(spec, {"kind", "rows", "path", "policy"}, ("kind",), path)
    out = {"kind": kind, "policy": spec.get("policy", "cycle")}
    if out["policy"] not in ("cycle", "truncate"):
        _fail(f"{path}.policy", f"must be 'cycle' or 'truncate', got {out['policy']!r}")
    has_rows = "rows" in spec
    has_path = "path" in spec
    if has_rows == has_path:
        _fail(path, "exactly one of 'rows' or 'path' is required")
    if has_rows:
        rows = spec["rows"]
        if not isinstance(rows, list) or not rows:
            _fail(f"{path}.rows", "expected a nonempty list of weight rows")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or not row:
                _fail(f"{path}.rows[{i}]", "expected a list of numbers")
            for v in row:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    _fail(f"{path}.rows[{i}]", f"expected numbers, got {v!r}")
        out["rows"] = [[float(v) for v in row] for row in rows]
    else:
        out["path"] = _check_file(spec["path"], base_dir, f"{path}.path")
    return out


def _validate_initial_state(spec, base_dir: str) -> dict:
    path = "initial_state"
    if spec is None:
        return {"source": "random", "scale": 1.0}
    _require_keys(spec, {"source", "data", "path", "scale"}, ("source",), path)
    source = spec["source"]
    if source == "inline":
        _require_keys(spec, {"source", "data"}, ("source", "data"), path)
        if isinstance(spec["data"], dict):
            try:
                decode_state(spec["data"])
            except (TypeError, ValueError) as exc:
                _fail(f"{path}.data", str(exc))
        return {"source": "inline", "data": copy.deepcopy(spec["data"])}
    if source == "file":
        _require_keys(spec, {"source", "path"}, ("source", "path"), path)
        return {
            "source": "file",
            "path": _check_file(spec["path"], base_dir, f"{path}.path"),
        }
    if source == "random":
        _require_keys(spec, {"source", "scale"}, ("source",), path)
        return {
            "source": "random",
            "scale": _as_float(spec.get("scale", 1.0), f"{path}.scale", positive=True),
        }
    _fail(f"{path}.source", f"must be 'inline', 'file', or 'random', got {source!r}")


def _validate_tolerances(spec) -> dict:
    path = "tolerances"
    if spec is None:
        return dict(DEFAULT_TOLERANCES)
    _require_keys(spec, set(DEFAULT_TOLERANCES), (), path)
    out = dict(DEFAULT_TOLERANCES)
    for key in spec:
        out[key] = _as_float(spec[key], f"{path}.{key}", positive=True)
    return out


def parse_config(source, *, base_dir: Optional[str] = None) -> RunConfig:
    """Parse a config from a file path or inline JSON text, strictly validated."""
    if isinstance(source, dict):
        doc = copy.deepcopy(source)
        base = base_dir or os.getcwd()
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            raw = text
            base = base_dir or os.getcwd()
        else:
            if not os.path.isfile(text):
                raise ConfigError(f"config file does not exist: {text}")
            with open(text) as fh:
                raw = fh.read()
            base = base_dir or os.path.dirname(os.path.abspath(text))
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc

    _require_keys(
        doc,
        {
            "schema_version",
            "application",
            "params",
            "schedule",
            "initial_state",
            "steps",
            "trials",
            "seed",
            "tolerances",
            "output",
        },
        ("schema_version", "application"),
        "",
    )
    version = doc["schema_version"]
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    app = doc["application"]
    if app not in APPLICATIONS:
        _fail(
            "application",
            f"unknown application {app!r}; expected one of {', '.join(APPLICATIONS)}",
        )

    record = APPLICATION_TABLE[app]
    params = doc.get("params")
    params = record.params({} if params is None else params, base)
    schedule = _validate_schedule(app, doc.get("schedule"), base)
    initial_state = _validate_initial_state(doc.get("initial_state"), base)
    steps = _as_int(doc.get("steps", record.steps), "steps", lo=0, hi=MAX_STEPS)

    trials = doc.get("trials")
    if record.samples:
        trials = _as_int(
            trials if trials is not None else DEFAULT_TRIALS, "trials", lo=1, hi=MAX_TRIALS
        )
    elif trials is not None:
        _fail("trials", "only applies to random-state runs")

    seed = doc.get("seed")
    if seed is not None:
        seed = _as_int(seed, "seed", lo=0, hi=2**64 - 1)

    _check_memory(_dense_bytes(app, params, schedule, steps, trials))
    tolerances = _validate_tolerances(doc.get("tolerances"))

    output = doc.get("output")
    if output is not None and (not isinstance(output, str) or not output):
        _fail("output", f"expected a directory path string, got {output!r}")

    needs_seed = []
    if schedule["kind"] in RANDOM_SCHEDULE_KINDS and "seed" not in schedule:
        needs_seed.append("the randomized schedule has no seed of its own")
    if initial_state["source"] == "random":
        needs_seed.append("the initial state is randomized")
    if record.samples:
        needs_seed.append("trial sampling is randomized")
    if seed is None and needs_seed:
        _fail("seed", f"required: {'; '.join(needs_seed)}")

    return RunConfig(
        application=app,
        params=params,
        schedule=schedule,
        initial_state=initial_state,
        steps=steps,
        trials=trials,
        seed=seed,
        tolerances=tolerances,
        output=output,
        base_dir=base,
    )


def with_absolute_paths(config: RunConfig) -> RunConfig:
    """The same run with each referenced file and its output directory named
    by absolute path, so that its document reads the same files and writes
    to the same directory from any directory."""
    doc = config.to_dict()
    for spec in (doc["params"].get("group", {}), doc["schedule"], doc["initial_state"]):
        if "path" in spec:
            spec["path"] = os.path.abspath(config.resolve(spec["path"]))
    return replace(
        config,
        params=doc["params"],
        schedule=doc["schedule"],
        initial_state=doc["initial_state"],
        output=config.output and os.path.abspath(config.resolve(config.output)),
    )


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON text for a normalized config."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def canonical_sha256(doc: dict) -> str:
    """sha256 hex digest of a JSON document in canonical form (sorted, compact)."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_hash(config: RunConfig) -> str:
    """sha256 of the canonical serialization, hex digest."""
    return canonical_sha256(config.to_dict())
