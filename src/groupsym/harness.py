"""Run execution, artifact output, and artifact-only verification.

execute turns a parsed config into three files in an artifact directory:
result.json (series and final state, floats at full precision), trajectory.csv
(the lifted weight trajectory), and manifest.json (config hash, seed, RNG
algorithm, tool version), plus a normalized config.json copy.  All writes are
atomic, and a rerun of the same config and seed produces a byte-identical
trajectory CSV.

verify replays nothing: _read_artifacts reads and validates the artifacts
once, and each check in the _CHECKS table judges that context alone and
reports pass/fail with its worst-case margin.  The dft check also rebuilds
the initial state from config.json, a pure function of the config, to
re-derive the transform the run had to reach.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np
from numpy.fft import fft
from numpy.random import PCG64, Generator, SeedSequence

from .actions import (
    Base64State,
    decode_state,
    encode_state,
    load_state,
    pauli_matrices,
    pauli_quotient_group,
    permutation_action,
    regular_action,
)
from .applications import (
    SAMPLING_BETA,
    ExperimentResult,
    lift_roundoff,
    run_dft,
    run_dynamical_decoupling,
    run_gossip_consensus,
    run_probability_symmetrization,
    run_quantum_gossip,
    run_random_state_generation,
    sampling_tolerance,
    spectral_comparison,
)
from .config import (
    ConfigError,
    RunConfig,
    canonical_sha256,
    check_spectral_memory,
    config_hash,
    parse_config,
    serialize_config,
    with_absolute_paths,
)
from .groups import (
    FiniteGroup,
    cyclic_group,
    group_from_json,
    symmetric_group,
    transposition_index,
)
from .lifted import (
    WEIGHT_ATOL,
    MixingCertificate,
    envelope_bounds,
    find_mixing_certificate,
    lifted_series,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .schedules import (
    RNG_ALGORITHM,
    CyclicSchedule,
    DDBisectionSchedule,
    ExplicitSchedule,
    RandomGossipSchedule,
    RandomSubsetSchedule,
    Schedule,
    schedule_from_csv,
)

__all__ = [
    "HarnessError",
    "RunArtifacts",
    "CheckResult",
    "VerificationReport",
    "execute",
    "verify",
    "certify_run",
    "certify_schedule",
    "spectral_run",
    "result_to_dict",
    "EXIT_OK",
    "EXIT_NOT_CONVERGED",
    "EXIT_CONFIG",
    "EXIT_RUNTIME",
    "ENV_OUTPUT_ROOT",
    "VERIFY_CHECKS",
    "TOOL_VERSION",
]

TOOL_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_NOT_CONVERGED = 3
EXIT_CONFIG = 4
EXIT_RUNTIME = 5

ENV_OUTPUT_ROOT = "GROUPSYM_OUTPUT_ROOT"

RESULT_FILE = "result.json"
TRAJECTORY_FILE = "trajectory.csv"
MANIFEST_FILE = "manifest.json"
CONFIG_FILE = "config.json"
# result.json layout; 2 writes large float arrays as base64 (actions.encode_state)
RESULT_SCHEMA_VERSION = 2
# Characters per write: writing a whole string at once would encode a copy
# of it (45 MB for the dft N=1024 result.json).
WRITE_CHUNK = 1 << 20

# Verification slack: CSV and JSON round-trips are exact, so consistency
# comparisons use tight float tolerances; monotonicity allows accumulated
# rounding of one ulp-scale term per step.
WEIGHT_SUM_ATOL = 1e-9
WEIGHT_NEG_ATOL = 1e-12
SERIES_MATCH_ATOL = 1e-12
KL_MATCH_ATOL = 1e-9
MONOTONE_ATOL = 1e-12
ENVELOPE_ATOL = 1e-12
KL_DISTINGUISH_ATOL = 1e-7
# Signal steps a certificate scans, unless certify is given a horizon.
CERTIFICATE_HORIZON = 256


class HarnessError(RuntimeError):
    """Runtime failure inside a run, annotated with its module of origin."""

    def __init__(self, message: str, *, module: str = "harness", step: Optional[int] = None):
        where = f"[{module}" + (f", step {step}" if step is not None else "") + "]"
        super().__init__(f"{where} {message}")
        self.module = module
        self.step = step


def _substream(seed: int, key: int) -> int:
    """Derive an independent 64-bit stream seed from the top-level seed."""
    ss = SeedSequence(seed, spawn_key=(key,))
    return int(ss.generate_state(1, np.uint64)[0])


SEED_SCHEDULE = 0
SEED_STATE = 1
SEED_TRIALS = 2


# -- building runs from configs -----------------------------------------------


def _build_group(spec: dict, config: RunConfig) -> FiniteGroup:
    if spec["kind"] == "cyclic":
        return cyclic_group(spec["n"])
    if spec["kind"] == "symmetric":
        return symmetric_group(spec["m"])
    return group_from_json(config.resolve(spec["path"]))


def _resolve_elements(entries, group: FiniteGroup, m: Optional[int]) -> List[int]:
    """Map config-level entries (indices, [j, k] edges, names) to element indices."""
    names = getattr(group, "element_names", None)
    out = []
    for entry in entries:
        if isinstance(entry, list):
            if m is None:
                raise ConfigError(f"edge entry {entry} is only valid for node-based runs")
            out.append(transposition_index(group, entry[0], entry[1]))
        elif isinstance(entry, str):
            if not names or entry not in names:
                raise ConfigError(f"group has no element named {entry!r}")
            out.append(list(names).index(entry))
        else:
            out.append(int(entry))
    return out


def build_schedule(config: RunConfig, group: FiniteGroup, *, m: Optional[int] = None,
                   default_support: Optional[List[int]] = None):
    """Construct the schedule object a config describes over a concrete group."""
    spec = config.schedule
    kind = spec["kind"]
    if kind == "cyclic":
        elements = _resolve_elements(spec["elements"], group, m)
        return CyclicSchedule(group, elements, spec["alpha"])
    if kind in ("random-gossip", "random-subset"):
        if "support" in spec:
            support = _resolve_elements(spec["support"], group, m)
        elif default_support:
            support = list(default_support)
        else:
            raise ConfigError("schedule.support: required for this application")
        seed = spec.get("seed")
        if seed is None:
            seed = _substream(config.seed, SEED_SCHEDULE)
        cls = RandomGossipSchedule if kind == "random-gossip" else RandomSubsetSchedule
        return cls(group, support, tuple(spec["alpha_range"]), seed)
    if kind == "dd-bisection":
        chooser = _resolve_elements(spec["chooser"], group, None)
        return DDBisectionSchedule(group, chooser, spec["alpha"])
    # custom-sequence
    if "rows" in spec:
        rows = [np.asarray(row, dtype=np.float64) for row in spec["rows"]]
        return ExplicitSchedule(group, rows, policy=spec["policy"])
    return schedule_from_csv(config.resolve(spec["path"]), group, policy=spec["policy"])


def _state_rng(config: RunConfig) -> Generator:
    return Generator(PCG64(_substream(config.seed, SEED_STATE)))


def _initial_array(config: RunConfig, shape, kind: str) -> np.ndarray:
    """Materialize the configured initial state for a target shape and flavor."""
    spec = config.initial_state
    if spec["source"] == "inline":
        data = spec["data"]
        if isinstance(data, dict):
            return decode_state(data)
        dtype = np.complex128 if kind in ("complex", "hermitian") else np.float64
        try:
            return np.asarray(data, dtype=dtype)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"initial_state.data: not a numeric array: {exc}")
    if spec["source"] == "file":
        return load_state(config.resolve(spec["path"]))
    rng = _state_rng(config)
    scale = spec["scale"]
    if kind == "real":
        return scale * rng.standard_normal(shape)
    if kind == "complex":
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if kind == "prob":
        v = np.abs(rng.standard_normal(shape)) + 1e-3
        return v / v.sum()
    if kind == "hermitian":
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return scale * (a + a.conj().T) / 2.0
    if kind == "traceless-hermitian-2":
        sigma = pauli_matrices()
        coeffs = scale * rng.standard_normal(3)
        return np.tensordot(coeffs, sigma[1:], axes=1)
    raise ValueError(f"unknown state flavor {kind!r}")


def _build_run(config: RunConfig) -> Tuple[FiniteGroup, Schedule]:
    """The group and the schedule a validated config runs on."""
    app, params = config.application, config.params
    if app in ("gossip", "prob-sym", "quantum-gossip"):
        m = params["m"]
        group = symmetric_group(m)
        support = sorted({transposition_index(group, j, k) for j, k in params["edges"]})
        return group, build_schedule(config, group, m=m, default_support=support)
    if app == "dft":
        group = cyclic_group(params["N"])
    elif app == "random-state":
        group = _build_group(params["group"], config)
    elif app == "dd":
        group = pauli_quotient_group()
    else:
        raise ConfigError(f"application: unknown application {app!r}")
    return group, build_schedule(config, group)


def run_from_config(config: RunConfig) -> ExperimentResult:
    """Dispatch a validated config to its runner.

    An engine run's ``certificate`` is left unset: ``execute`` searches it
    (``certify_schedule``) while the trajectory.csv writer formats rows.
    """
    threshold = config.tolerances["residual"]
    app, params, steps = config.application, config.params, config.steps
    group, schedule = _build_run(config)

    if app == "gossip":
        m, n = params["m"], params["n"]
        x0 = _initial_array(config, (m * n,), "real")
        return run_gossip_consensus(m, n, params["edges"], schedule, x0, steps, threshold=threshold)

    if app == "prob-sym":
        m, size = params["m"], params["outcome_size"]
        joint0 = _initial_array(config, (size,) * m, "prob")
        return run_probability_symmetrization(
            m, size, params["edges"], schedule, joint0, steps, threshold=threshold
        )

    if app == "quantum-gossip":
        m, d = params["m"], params["local_dim"]
        X0 = _initial_array(config, (d**m, d**m), "hermitian")
        return run_quantum_gossip(m, d, params["edges"], schedule, X0, steps, threshold=threshold)

    if app == "dft":
        N = params["N"]
        x = _initial_array(config, (N,), "complex")
        return run_dft(N, x, schedule, steps, threshold=threshold)

    if app == "random-state":
        y0 = _initial_array(config, (group.order,), "real")
        return run_random_state_generation(
            regular_action(group),
            y0,
            schedule,
            steps,
            config.trials,
            _substream(config.seed, SEED_TRIALS),
        )

    H_d = _initial_array(config, (2, 2), "traceless-hermitian-2")
    kwargs = {key: params[key] for key in ("dt", "frame_cap") if key in params}
    return run_dynamical_decoupling(
        group, H_d, pauli_matrices(), schedule, steps, threshold=threshold, **kwargs
    )


def certify_schedule(
    schedule,
    steps: int,
    tolerances: dict,
    *,
    max_T: Optional[int] = None,
    horizon: Optional[int] = None,
) -> MixingCertificate:
    """The mixing certificate of a run of ``steps`` steps: the rule both
    ``run`` and ``certify`` apply.

    Scans the first ``horizon`` steps of ``schedule`` (a Schedule, or the
    Signal an engine run realized), by default min(steps, CERTIFICATE_HORIZON)
    and at least 1, for the smallest window of at most ``max_T`` steps, by
    default 4|G|, whose composite weights exceed ``tolerances["delta_floor"]``
    on every element.
    """
    if horizon is None:
        horizon = max(1, min(steps, CERTIFICATE_HORIZON))
    if max_T is None:
        max_T = 4 * schedule.group.order
    return find_mixing_certificate(
        schedule.realize(horizon), max_T=max_T, delta_floor=tolerances["delta_floor"]
    )


# -- artifact output -----------------------------------------------------------


def _jsonify(value):
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return encode_state(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    return value


def _certificate_doc(cert: MixingCertificate) -> dict:
    """A certificate as result.json and certify_run record it."""
    return {
        "T": int(cert.T),
        "delta": float(cert.delta),
        "satisfied": bool(cert.satisfied),
        "witness": _jsonify(cert.witness),
        "horizon": int(cert.horizon),
    }


def result_to_dict(result: ExperimentResult, config: RunConfig) -> dict:
    """JSON-safe result document; floats survive round-trips exactly."""
    extras = dict(result.extras)
    conserved = extras.pop("conserved_series", {})
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "application": config.application,
        "converged": bool(result.converged),
        "steps_run": int(result.steps_run),
        "threshold": float(result.threshold),
        "group_order": int(result.weights_trajectory.shape[1]),
        "residuals": [float(v) for v in result.residuals],
        "conserved_drift": float(result.conserved_drift),
        "conserved_series": {
            name: encode_state(np.asarray(series)) for name, series in conserved.items()
        },
        "lift_direct_gap": float(result.lift_direct_gap),
        "lift_tolerance": float(result.lift_tolerance),
        "tolerances": dict(config.tolerances),
        "certificate": None if result.certificate is None else _certificate_doc(result.certificate),
        "final_state": encode_state(np.asarray(result.final_state)),
        "metadata": _jsonify(result.metadata),
        "extras": _jsonify(extras),
    }


def _atomic_write(path: str, write: Callable[[str], object]) -> None:
    """Let ``write`` fill a temporary file beside ``path``, then move it into place."""
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        # mkstemp would create mode 0600; 0666 lets the caller's umask decide
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        try:
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            break
        except FileExistsError:
            continue
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _text(*parts: str) -> Callable[[str], object]:
    """Write ``parts`` in turn, a slice at a time, so no copy of a whole part is made."""

    def write(tmp: str) -> None:
        with open(tmp, "w") as fh:
            for part in parts:
                for start in range(0, len(part), WRITE_CHUNK):
                    fh.write(part[start : start + WRITE_CHUNK])

    return write


class _Verbatim:
    """Text that _json writes between quotes as it is."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _with_verbatim_base64(value):
    """``value`` with each Base64State's text held as a _Verbatim.  Containers
    are copied; the strings in them are not."""
    if isinstance(value, Base64State):
        return {**value, "base64": _Verbatim(value["base64"])}
    if isinstance(value, dict):
        return {k: _with_verbatim_base64(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_with_verbatim_base64(v) for v in value]
    return value


class _VerbatimEncoder(json.JSONEncoder):
    """json.dump's encoder, except that a _Verbatim encodes as "" and queues
    its text: the chunk it yields next is that "", which _json replaces."""

    def __init__(self):
        super().__init__()
        self.queued: List[str] = []

    def default(self, o):
        if isinstance(o, _Verbatim):
            self.queued.append(o.text)
            return ""
        return super().default(o)


def _json(doc: dict) -> Callable[[str], object]:
    """Write ``doc`` as ``json.dumps`` would, then a newline, one encoder chunk at a time.

    ``json.dumps`` joins its chunks into one more copy of the whole text: a
    dft run's two base64 arrays held three copies at once, the largest
    share of its peak memory.  The base64 text of each Base64State is
    written as it is, not through the escaping pass, which it never needs.
    """

    def write(tmp: str) -> None:
        encoder = _VerbatimEncoder()
        with open(tmp, "w") as fh:
            for chunk in encoder.iterencode(_with_verbatim_base64(doc)):
                if encoder.queued:
                    fh.write('"')
                    fh.write(encoder.queued.pop())
                    chunk = '"'
                fh.write(chunk)
            fh.write("\n")

    return write


def _artifact_dir(config: RunConfig, out_dir: Optional[str]) -> str:
    if out_dir:
        return out_dir
    if config.output:
        return config.resolve(config.output)
    root = os.environ.get(ENV_OUTPUT_ROOT) or os.path.join(os.getcwd(), "runs")
    return os.path.join(root, f"{config.application}-{config_hash(config)[:8]}")


@dataclass
class RunArtifacts:
    """Where a run landed and how it went."""

    directory: str
    result: ExperimentResult
    exit_code: int
    files: List[str] = field(default_factory=list)


@contextmanager
def _application_errors(config: RunConfig) -> Iterator[None]:
    """Re-raise a failure of the application's work as a ConfigError or a HarnessError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{config.application}: {exc}") from exc
    except Exception as exc:
        raise HarnessError(str(exc), module=config.application) from exc


def _make_dirs(directory: str) -> List[str]:
    """Create ``directory`` and its missing parents; return the ones created, innermost first."""
    made = []
    path = os.path.abspath(directory)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    return made


def execute(config: RunConfig, *, out_dir: Optional[str] = None) -> RunArtifacts:
    """Run the configured application and write the artifact set.

    The certificate search and the result.json write run while the
    trajectory.csv writer formats rows (``write_trajectory_csv``'s
    ``overlap``).  A run that fails before writing anything leaves no
    directory that it created.
    """
    with _application_errors(config):
        result = run_from_config(config)

    def certify_and_save() -> None:
        if result.signal is not None and config.steps > 0:
            with _application_errors(config):
                result.certificate = certify_schedule(
                    result.signal, config.steps, config.tolerances
                )
        doc = result_to_dict(result, config)
        _atomic_write(os.path.join(directory, RESULT_FILE), _json(doc))

    made: List[str] = []
    try:
        directory = _artifact_dir(config, out_dir)
        made = _make_dirs(directory)
        # config.json names referenced files absolutely, so that it reads the
        # same files from the run directory
        run_config = with_absolute_paths(config)
        _atomic_write(
            os.path.join(directory, TRAJECTORY_FILE),
            lambda tmp: write_trajectory_csv(
                tmp,
                result.weights_trajectory,
                result.lyapunov,
                result.kl,
                overlap=certify_and_save,
            ),
        )
        manifest = {
            "tool": "groupsym",
            "version": TOOL_VERSION,
            "rng": RNG_ALGORITHM,
            "seed": config.seed,
            "config_sha256": config_hash(run_config),
            "application": config.application,
            "artifacts": [CONFIG_FILE, RESULT_FILE, TRAJECTORY_FILE],
        }
        _atomic_write(
            os.path.join(directory, MANIFEST_FILE),
            _text(json.dumps(manifest, indent=2, sort_keys=True), "\n"),
        )
        _atomic_write(os.path.join(directory, CONFIG_FILE), _text(serialize_config(run_config)))
    except BaseException as exc:
        for path in made:
            with suppress(OSError):
                os.rmdir(path)
        if isinstance(exc, OSError):
            raise HarnessError(f"could not write artifacts: {exc}", module="harness") from exc
        raise

    exit_code = EXIT_OK if result.converged else EXIT_NOT_CONVERGED
    return RunArtifacts(
        directory=directory,
        result=result,
        exit_code=exit_code,
        files=[RESULT_FILE, TRAJECTORY_FILE, MANIFEST_FILE, CONFIG_FILE],
    )


# -- verification from artifacts ----------------------------------------------


@dataclass
class CheckResult:
    """One verification check: pass/fail/skip with its worst margin."""

    name: str
    status: str
    margin: Optional[float]
    detail: str

    def line(self) -> str:
        tag = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[self.status]
        margin = "" if self.margin is None else f" margin={self.margin:.3e}"
        return f"{tag} {self.name}{margin} {self.detail}".rstrip()


@dataclass
class VerificationReport:
    """All checks for one artifact directory."""

    directory: str
    checks: List[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def lines(self) -> List[str]:
        return [c.line() for c in self.checks]


@dataclass
class _Artifacts:
    """One run directory's files, read once; every check reads only this."""

    directory: str
    manifest: dict
    config_doc: dict
    weights: np.ndarray
    lyapunov: np.ndarray
    kl: np.ndarray
    lyapunov_re: np.ndarray  # both recomputed from the weights
    kl_re: np.ndarray
    final_state: np.ndarray
    series: dict
    steps_run: Optional[int]
    residual_count: int
    lift_gap: float
    lift_tol: float
    trials: Optional[int]  # a sampling run's trial count, from config.json
    conserved_tol: float
    certificate: Optional[Tuple[int, float]]  # (T, delta) of a satisfied certificate
    last: int  # the certificate judges rows 0..last
    scope: str


class _Unreadable(Exception):
    """The artifacts cannot be checked; ``kind`` is "missing" or "unreadable"."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def _read_json(directory: str, name: str) -> dict:
    with open(os.path.join(directory, name)) as fh:
        return _object(json.load(fh), name)


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{field}: expected a JSON object, got {reprlib.repr(value)}")
    return value


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
        raise ValueError(f"{field}: expected a number, got {reprlib.repr(value)}")
    return float(value)


def _integer(value, field: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(
            f"{field}: expected an integer >= {minimum}, got {reprlib.repr(value)}"
        )
    return value


def _decoded(payload, field: str) -> np.ndarray:
    try:
        return decode_state(payload)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from exc


def _conserved_series(doc: dict) -> dict:
    """Each recorded monitor series, decoded and checked finite."""
    series = {}
    for name, payload in _object(doc.get("conserved_series", {}), "conserved_series").items():
        field = f"conserved_series.{name}"
        arr = _decoded(payload, field)
        if arr.ndim == 0:
            raise ValueError(f"{field}: expected a series, got a scalar")
        finite = np.isfinite(arr.reshape(len(arr), -1)).all(axis=1)
        if not finite.all():
            raise ValueError(f"{field}: non-finite value at step {np.argmin(finite)}")
        series[name] = arr
    return series


def _read_artifacts(directory: str) -> _Artifacts:
    """Open, parse, decode and validate a run's four files.

    _Unreadable if a file is missing, does not parse, or holds a field a
    check reads in the wrong form; an absent optional field takes its default.
    """
    missing = [
        f
        for f in (RESULT_FILE, TRAJECTORY_FILE, MANIFEST_FILE, CONFIG_FILE)
        if not os.path.isfile(os.path.join(directory, f))
    ]
    if missing:
        raise _Unreadable("missing", ", ".join(missing))
    try:
        doc = _read_json(directory, RESULT_FILE)
        manifest = _read_json(directory, MANIFEST_FILE)
        config_doc = _read_json(directory, CONFIG_FILE)
        weights, lyapunov, kl = read_trajectory_csv(os.path.join(directory, TRAJECTORY_FILE))
        final_state = _decoded(doc.get("final_state"), "final_state")
        series = _conserved_series(doc)
        steps_run = doc.get("steps_run")
        if steps_run is not None:
            _integer(steps_run, "steps_run", 0)
        try:
            residuals = np.asarray(doc.get("residuals", []), dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"residuals: not a list of numbers ({exc})") from exc
        lift_gap = _number(doc.get("lift_direct_gap", math.inf), "lift_direct_gap")
        lift_tol = _number(doc.get("lift_tolerance", 1e-8), "lift_tolerance")
        tolerances = _object(doc.get("tolerances", {}), "tolerances")
        conserved_tol = _number(tolerances.get("conserved", 1e-9), "tolerances.conserved")

        rows, order = weights.shape
        trials = None
        if config_doc.get("application") == "random-state":
            trials = _integer(config_doc.get("trials"), "config.json trials", 1)
            if final_state.shape != (order,):
                raise ValueError(
                    f"final_state: shape {final_state.shape} is not one weight per element "
                    f"of the {order} trajectory columns"
                )
        cert = doc.get("certificate")
        certificate, last = None, rows - 1
        if cert is not None and _object(cert, "certificate").get("satisfied", False):
            T = _integer(cert.get("T"), "certificate.T", 1)
            delta = _number(cert.get("delta"), "certificate.delta")
            if not 0.0 < delta <= 1.0 / order + WEIGHT_ATOL:
                raise ValueError(f"certificate.delta: {delta!r} is outside (0, 1/{order}]")
            certificate = (T, delta)
            # A certificate covers windows inside its scanned horizon, so rows
            # 0..horizon; one that records no horizon is judged on every row.
            if cert.get("horizon") is not None:
                last = min(last, _integer(cert["horizon"], "certificate.horizon", 0))
    except (ValueError, OSError, OverflowError) as exc:
        raise _Unreadable("unreadable", str(exc)) from exc

    scope = f"steps 0..{last}"
    if last < rows - 1:
        scope += f" (the certificate horizon; {rows - 1 - last} later steps not judged)"
    lyapunov_re, kl_re = lifted_series(weights)
    return _Artifacts(
        directory, manifest, config_doc, weights, lyapunov, kl, lyapunov_re, kl_re,
        final_state, series,
        steps_run=steps_run,
        residual_count=residuals.size,
        lift_gap=lift_gap,
        lift_tol=lift_tol,
        trials=trials,
        conserved_tol=conserved_tol,
        certificate=certificate,
        last=last,
        scope=scope,
    )


def _check_artifacts(a: _Artifacts) -> CheckResult:
    if a.manifest.get("config_sha256") == canonical_sha256(a.config_doc):
        return CheckResult("artifacts", "pass", None, "all files present, config hash matches")
    return CheckResult(
        "artifacts", "fail", None, "manifest config_sha256 does not match config.json"
    )


def _check_weights(a: _Artifacts) -> CheckResult:
    """Every trajectory row is a distribution."""
    sum_dev = np.abs(a.weights.sum(axis=1) - 1.0)
    min_entry = a.weights.min(axis=1)
    worst_sum = int(np.argmax(sum_dev))
    worst_neg = int(np.argmin(min_entry))
    margin = float(WEIGHT_SUM_ATOL - sum_dev[worst_sum])
    if sum_dev[worst_sum] > WEIGHT_SUM_ATOL:
        detail = f"row sum off by {sum_dev[worst_sum]:.3e} at step {worst_sum}"
        return CheckResult("weights", "fail", margin, detail)
    if min_entry[worst_neg] < -WEIGHT_NEG_ATOL:
        detail = f"negative weight {min_entry[worst_neg]:.3e} at step {worst_neg}"
        return CheckResult("weights", "fail", float(min_entry[worst_neg] + WEIGHT_NEG_ATOL), detail)
    return CheckResult("weights", "pass", margin, f"{len(a.weights)} rows are valid distributions")


def _column_mismatch(name: str, stored, recomputed, atol: float) -> Optional[CheckResult]:
    """A FAIL if a stored CSV column is more than ``atol`` off its recomputation."""
    dev = np.abs(recomputed - stored)
    worst = int(np.argmax(dev))
    if dev[worst] <= atol:
        return None
    detail = f"stored value disagrees with weights at step {worst} (off by {dev[worst]:.3e})"
    return CheckResult(name, "fail", float(atol - dev[worst]), detail)


def _check_lyapunov(a: _Artifacts) -> CheckResult:
    """The stored column matches the weights and never increases."""
    mismatch = _column_mismatch("lyapunov", a.lyapunov, a.lyapunov_re, SERIES_MATCH_ATOL)
    if mismatch:
        return mismatch
    inc = np.diff(a.lyapunov_re)
    if inc.size and inc.max() > MONOTONE_ATOL:
        at = int(np.argmax(inc)) + 1
        detail = f"increase of {inc.max():.3e} at step {at}"
        return CheckResult("lyapunov", "fail", float(MONOTONE_ATOL - inc.max()), detail)
    margin = float(MONOTONE_ATOL - inc.max()) if inc.size else None
    return CheckResult("lyapunov", "pass", margin, "column consistent and nonincreasing")


def _check_kl(a: _Artifacts) -> CheckResult:
    """The stored column matches; strict decrease across certified windows."""
    mismatch = _column_mismatch("kl", a.kl, a.kl_re, KL_MATCH_ATOL)
    if mismatch:
        return mismatch
    if a.certificate is None:
        return CheckResult("kl", "skip", None, "skipped: no certificate")
    T = a.certificate[0]
    uniform = 1.0 / a.weights.shape[1]
    worst_gap, bad = math.inf, None
    for t in range(a.last + 1 - T):
        if np.abs(a.weights[t] - uniform).max() <= KL_DISTINGUISH_ATOL:
            continue
        gap = a.kl_re[t] - a.kl_re[t + T]
        if gap < worst_gap:
            worst_gap, bad = gap, t
    if bad is None:
        return CheckResult("kl", "pass", None, f"no distinguishable windows in {a.scope}")
    if worst_gap <= 0:
        detail = f"window decrease violated at step {bad} (gap {worst_gap:.3e})"
        return CheckResult("kl", "fail", float(worst_gap), detail)
    detail = f"strict decrease over {T}-step windows in {a.scope}"
    return CheckResult("kl", "pass", float(worst_gap), detail)


def _check_envelope(a: _Artifacts) -> CheckResult:
    """Certified runs stay inside the closed-form bounds."""
    if a.certificate is None:
        return CheckResult("envelope", "skip", None, "skipped: no certificate")
    T, delta = a.certificate
    order = a.weights.shape[1]
    rho = 1.0 - order * delta
    worst_margin, bad = math.inf, None
    for t in range(a.last + 1):
        k = t // T
        upper, lower = envelope_bounds(order, delta, k)
        row = a.weights[t]
        slack = min(
            upper + ENVELOPE_ATOL - row.max(),
            row.min() - (lower - ENVELOPE_ATOL),
            (abs(rho) ** k + ENVELOPE_ATOL) - np.abs(row - 1.0 / order).max(),
        )
        if slack < worst_margin:
            worst_margin, bad = slack, t
    if worst_margin < 0:
        return CheckResult("envelope", "fail", float(worst_margin), f"bound violated at step {bad}")
    detail = f"rho={rho:.6g}, T={T}, inside over {a.scope}"
    return CheckResult("envelope", "pass", float(worst_margin), detail)


def _check_conserved(a: _Artifacts) -> CheckResult:
    """Every monitor stays at its initial value."""
    if not a.series:
        return CheckResult("conserved", "skip", None, "skipped: no conserved series recorded")
    worst_drift, worst_name = 0.0, ""
    for name, arr in a.series.items():
        drift = float(np.abs(arr - arr[0]).max()) if arr.size else 0.0
        if drift > worst_drift:
            worst_drift, worst_name = drift, name
    margin = float(a.conserved_tol - worst_drift)
    if worst_drift > a.conserved_tol:
        return CheckResult("conserved", "fail", margin, f"{worst_name} drifted {worst_drift:.3e}")
    return CheckResult("conserved", "pass", margin, f"{len(a.series)} monitored quantities held")


def _check_lift(a: _Artifacts) -> CheckResult:
    """The recorded lift/direct reconstruction gap is within tolerance.

    For a sampling run neither recorded value is trusted: the gap is the TV
    distance between the final state (the empirical law) and the last
    trajectory row (the exact law), and the tolerance is sampling_tolerance
    at the config's trials and the group order.
    """
    if a.trials is not None:
        gap = 0.5 * float(np.abs(a.final_state - a.weights[-1]).sum())
        bound = sampling_tolerance(a.weights.shape[1], a.trials)
        detail = f"sampling bound {bound:.3e} at beta={SAMPLING_BETA:g}, {a.trials} trials"
        if gap <= bound:
            return CheckResult("lift", "pass", bound - gap, f"TV gap {gap:.3e} within {detail}")
        return CheckResult("lift", "fail", bound - gap, f"TV gap {gap:.3e} exceeds {detail}")
    margin = float(a.lift_tol - a.lift_gap)
    if a.lift_gap <= a.lift_tol:
        return CheckResult("lift", "pass", margin, f"gap {a.lift_gap:.3e}")
    return CheckResult("lift", "fail", margin, f"gap {a.lift_gap:.3e} exceeds {a.lift_tol:.3e}")


def _check_consistency(a: _Artifacts) -> CheckResult:
    """result.json series agree with the CSV and declared lengths."""
    rows = a.weights.shape[0]
    problems = []
    if a.steps_run is None or rows != a.steps_run + 1:
        problems.append(f"CSV has {rows} rows but steps_run={a.steps_run}")
    if a.residual_count != rows:
        problems.append(f"residual series has {a.residual_count} entries, expected {rows}")
    if problems:
        return CheckResult("consistency", "fail", None, "; ".join(problems))
    return CheckResult("consistency", "pass", None, "series lengths and trajectory agree")


def _check_dft(a: _Artifacts) -> CheckResult:
    """The final state's first row is DFT(x)/N, re-derived from the config.

    Entry (0, n) of a(k, x 1^T) is x[k] w^{-kn}, so the lifted state
    sum_k w_k a(k, X0) has a first row within sum_k |w_k - 1/N| |x_k| of
    fft(x)/N.  With w_T the last trajectory row, the direct state must be
    within ||w_T - 1/N||_1 ||x||_inf of it, plus the lift round-off
    allowance lift_roundoff(steps_run, N, x).
    x comes from config.json alone; nothing in result.json is trusted.
    """
    if a.config_doc.get("application") != "dft":
        return CheckResult("dft", "skip", None, "skipped: not a dft run")
    try:
        # a relative path left in config.json resolves against the run directory
        config = parse_config(a.config_doc, base_dir=os.path.abspath(a.directory))
        N = config.params["N"]
        x = np.asarray(_initial_array(config, (N,), "complex"), dtype=np.complex128)
    except (ValueError, OSError) as exc:
        return CheckResult("dft", "skip", None, f"skipped: initial state not rebuilt ({exc})")
    weights, final_state = a.weights, a.final_state
    if x.shape != (N,) or final_state.shape != (N, N) or weights.shape[1] != N:
        return CheckResult(
            "dft",
            "fail",
            None,
            f"shapes x {x.shape}, final state {final_state.shape} and "
            f"{weights.shape[1]} trajectory columns do not fit N={N}",
        )
    gaps = np.abs(final_state[0] - fft(x) / N)
    column = int(np.argmax(gaps))
    gap = float(gaps[column])
    scale = float(np.abs(x).max(initial=0.0))
    roundoff = lift_roundoff(weights.shape[0] - 1, N, x)
    bound = float(np.abs(weights[-1] - 1.0 / N).sum()) * scale + roundoff
    if gap <= bound:
        detail = f"first row within {bound:.3e} of DFT(x)/N (gap {gap:.3e})"
        return CheckResult("dft", "pass", bound - gap, detail)
    detail = f"first row off DFT(x)/N by {gap:.3e} at column {column}, bound {bound:.3e}"
    return CheckResult("dft", "fail", bound - gap, detail)


# The checks verify runs, in report order; a new check is one entry here.
_CHECKS: Dict[str, Callable[[_Artifacts], CheckResult]] = {
    "artifacts": _check_artifacts,
    "weights": _check_weights,
    "lyapunov": _check_lyapunov,
    "kl": _check_kl,
    "envelope": _check_envelope,
    "conserved": _check_conserved,
    "lift": _check_lift,
    "consistency": _check_consistency,
    "dft": _check_dft,
}
VERIFY_CHECKS = tuple(_CHECKS)


def verify(directory: str, checks: Optional[List[str]] = None) -> VerificationReport:
    """Check a run's artifacts without re-simulating anything.

    Only the ``checks`` named (default: all) run, in VERIFY_CHECKS order.
    When the artifacts cannot be read, ``artifacts`` FAILs whatever the
    selection and the selected others SKIP.
    """
    for name in checks or ():
        if name not in _CHECKS:
            raise ConfigError(
                f"unknown check {name!r}; expected one of {', '.join(VERIFY_CHECKS)}"
            )
    selected = [name for name in VERIFY_CHECKS if not checks or name in checks]
    try:
        context = _read_artifacts(directory)
    except _Unreadable as exc:
        skipped = f"skipped: artifacts {exc.kind}"
        results = [CheckResult("artifacts", "fail", None, str(exc))]
        results += [CheckResult(n, "skip", None, skipped) for n in selected if n != "artifacts"]
        return VerificationReport(directory, results)
    return VerificationReport(directory, [_CHECKS[name](context) for name in selected])


# -- certification and spectral comparison ------------------------------------


def certify_run(config: RunConfig, max_T: int, *, horizon: Optional[int] = None) -> dict:
    """Scan the configured schedule for a mixing certificate (certify_schedule)."""
    group, schedule = _build_run(config)
    cert = certify_schedule(
        schedule, config.steps, config.tolerances, max_T=max_T, horizon=horizon
    )
    out = dict(_certificate_doc(cert), group_order=group.order)
    if cert.satisfied:
        out["rho"] = 1.0 - group.order * cert.delta
    return out


def spectral_run(config: RunConfig) -> dict:
    """Compare consensus-matrix contraction with the lifted transition matrix."""
    if config.application != "gossip":
        raise ConfigError("application: spectral comparison applies to gossip configs")
    check_spectral_memory(config)
    m = config.params["m"]
    group, schedule = _build_run(config)
    signal = schedule.realize(1)
    if not signal:
        raise ConfigError("steps: spectral comparison needs at least one step")
    action = permutation_action(m, 1, group)
    (idx,), (w,) = signal.rows(0, 1)
    A = sum(wg * action.matrix(g).real for g, wg in zip(idx, w) if wg)
    comp = spectral_comparison(A, signal[0])
    return {
        "sigma_consensus": comp.sigma_a,
        "sigma_lifted": comp.sigma_m,
        "degenerate_consensus": comp.degenerate_a,
        "degenerate_lifted": comp.degenerate_m,
        "eigenvalues_consensus": [[v.real, v.imag] for v in comp.eigenvalues_a],
        "eigenvalues_lifted": [[v.real, v.imag] for v in comp.eigenvalues_m],
        "group_order": group.order,
        "nodes": m,
    }
