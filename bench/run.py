"""groupsym benchmark: `groupsym run` -> artifacts -> `groupsym verify`, end to end.

    python3 bench/run.py --workload gossip-s7 [--seed 7] [--seconds 25] [--trace 0|1]
    python3 bench/run.py --workload all [--trace 0|1]    # the four workloads in turn
    python3 bench/run.py --self-test

Run from the root of a checkout.  Each sample is one closed-loop operation:
a fresh worker process (bench/worker.py) imports groupsym, parses the
generated config, runs the run verb and then the verify verb; the next sample
starts only after it has exited, and at most one worker runs at a time.  A
fresh process per sample matches the CLI, where every call pays its own
import and group build.  Samples start while the previous ones predict they
will end within --seconds; there is always at least one.

--trace 0 reports the end-to-end metrics (untraced samples only).  --trace 1
alternates untraced and traced samples and reports the per-layer metrics
from the traced ones, plus the tracing overhead on run_s.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, BENCH_DIR)
from workloads import REFERENCE_SEED, SELF_TEST_WORKLOADS, WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 25
# Setup-only workers per untraced run, on top of each sample's own setup, so
# setup_s is a median even when one sample fills the run.
SETUP_PROBES = 5
# A run never outlives this, whatever --seconds says: a worker still going
# when it passes is killed and its sample counted as failed.
HARD_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, the workload where it does the most work)
PER_LAYER = {
    "config.parse_s": ("s", "gossip-s7"),
    "groups.build_s": ("s", "gossip-s7"),
    "groups.builds": ("count", "gossip-s7"),
    "groups.table_mb": ("MB", "gossip-s7"),
    "groups.same_group_s": ("s", "gossip-s7"),
    "schedules.realize_s": ("s", "dft-z256"),
    "schedules.steps_realized": ("count", "dft-z256"),
    "schedules.used_ratio": ("ratio", "dft-z256"),
    "lifted.convolve_s": ("s", "quantum-gossip-s5"),
    "lifted.convolve_calls": ("count", "quantum-gossip-s5"),
    "lifted.weights_objects": ("count", "quantum-gossip-s5"),
    "lifted.certificate_s": ("s", "quantum-gossip-s5"),
    "lifted.certificate_convolves": ("count", "quantum-gossip-s5"),
    "lifted.diagnostics_s": ("s", "gossip-s7"),
    "lifted.csv_write_s": ("s", "gossip-s7"),
    "lifted.csv_read_s": ("s", "gossip-s7"),
    "actions.residual_s": ("s", "gossip-s7"),
    "actions.apply_calls": ("count", "gossip-s7"),
    "actions.step_s": ("s", "gossip-s7"),
    "actions.orbit_s": ("s", "dft-z256"),
    "actions.build_s": ("s", "quantum-gossip-s5"),
    "actions.encode_s": ("s", "dft-z256"),
    "harness.result_doc_s": ("s", "dft-z256"),
    "harness.write_s": ("s", "dft-z256"),
    "harness.bytes_written": ("bytes", "dft-z256"),
    "applications.engine_self_s": ("s", "dft-z256"),
    "applications.monitors_s": ("s", "quantum-gossip-s5"),
    "applications.sampling_self_s": ("s", "random-state-s6"),
    "applications.steps_run": ("count", "gossip-s7"),
    "harness.verify_self_s": ("s", "gossip-s7"),
    "trace.overhead_s": ("s", "gossip-s7"),
}

# ROADMAP's S7 baseline row: gossip n=2, seed 7, execute wall time.
S7_BASELINE = {"steps_requested": 300, "steps_run": 190, "run_s": 26.7, "peak_rss_mb": 304}


# -- samples -------------------------------------------------------------------


def _run_worker(work_dir, tag, config_path, extra, deadline):
    """Start one worker, wait for it, and return the JSON it wrote."""
    result_path = os.path.join(work_dir, f"{tag}.json")
    out_dir = os.path.join(work_dir, "artifacts")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), config_path, out_dir, result_path]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + extra,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        record = {"error": "worker killed at the run's time limit"}
    else:
        if proc.returncode != 0 or not os.path.isfile(result_path):
            record = {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        else:
            with open(result_path) as fh:
                record = json.load(fh)
            os.unlink(result_path)
    record["wall_s"] = time.perf_counter() - t0
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def _gate(sample, first, workload, seed):
    """Reasons a sample failed; empty when its outputs are correct."""
    if "error" in sample:
        return [f"run raised: {sample['error'].strip().splitlines()[-1]}"]
    reasons = []
    if sample["exit_code"] != workload.expected_exit:
        reasons.append(f"exit code {sample['exit_code']}, expected {workload.expected_exit}")
    reasons += [f"verify: {line}" for line in sample["verify_failures"]]
    for key in ("steps_run", "trajectory_sha256"):
        if first is not None and key in first and sample[key] != first[key]:
            reasons.append(f"{key} differs from the first sample at this seed")
    if seed == REFERENCE_SEED:
        if workload.reference_steps is not None and sample["steps_run"] != workload.reference_steps:
            reasons.append(f"steps_run {sample['steps_run']}, expected {workload.reference_steps}")
        if workload.reference_sha256 and sample["trajectory_sha256"] != workload.reference_sha256:
            reasons.append("trajectory.csv sha256 differs from the recorded reference")
    return reasons


def measure(workload, seed, seconds, trace, *, probes=SETUP_PROBES, tamper_first=False):
    """Run the closed loop for one workload and return samples plus metrics."""
    t_begin = time.perf_counter()
    hard_deadline = t_begin + HARD_LIMIT_S
    soft_deadline = t_begin + seconds
    work_dir = os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(OUT_ROOT, exist_ok=True)
    spans_path = os.path.join(OUT_ROOT, f"spans-{workload.name}-seed{seed}.jsonl")
    if trace and os.path.exists(spans_path):
        os.unlink(spans_path)
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(workload.make_config(seed), fh)

    try:
        # The first worker compiles bytecode and warms the file cache: not timed.
        _run_worker(work_dir, "warmup", config_path, ["--setup-only"], hard_deadline)
        setups = []
        for i in range(0 if trace else probes):
            probe = _run_worker(work_dir, f"probe{i}", config_path, ["--setup-only"], hard_deadline)
            if "setup_s" in probe:
                setups.append(probe["setup_s"])

        samples, failures, unit_walls = [], [], []
        first = None
        while True:
            unit_start = time.perf_counter()
            kinds = [False, True] if trace else [False]
            for traced in kinds:
                index = len(samples)
                extra = []
                if traced:
                    extra += ["--trace", spans_path, "--sample-id", str(index)]
                if tamper_first and index == 0:
                    extra.append("--tamper")
                sample = _run_worker(work_dir, f"sample{index}", config_path, extra, hard_deadline)
                sample["traced"] = traced
                reasons = _gate(sample, first, workload, seed)
                if first is None and not reasons:
                    first = sample
                if reasons:
                    failures.append((index, reasons))
                samples.append(sample)
                if "setup_s" in sample:
                    setups.append(sample["setup_s"])
            unit_walls.append(time.perf_counter() - unit_start)
            now = time.perf_counter()
            if now + statistics.median(unit_walls) > soft_deadline or now >= hard_deadline:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    plain = [s for s in samples if not s["traced"]]
    series = {"setup_s": setups}
    for key in ("run_s", "verify_s", "peak_rss_mb"):
        series[key] = [s[key] for s in plain if key in s]
    if trace:
        metrics = _layer_metrics(samples)
    else:
        metrics = {
            name: {"value": _median(series[name]), "unit": unit} for name, unit in END_TO_END.items()
        }
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "samples": samples,
        "failures": failures,
        "series": series,
        "metrics": metrics,
        "elapsed_s": time.perf_counter() - t_begin,
    }


def _median(values):
    return statistics.median(values) if values else None


def _layer_metrics(samples):
    traced = [s for s in samples if s["traced"] and "layers" in s]
    plain_run = [s["run_s"] for s in samples if not s["traced"] and "run_s" in s]
    traced_run = [s["run_s"] for s in traced if "run_s" in s]
    values = {}
    for name in PER_LAYER:
        if name == "schedules.used_ratio":
            values[name] = _median(
                [
                    s["layers"]["applications.steps_run"] / s["layers"]["schedules.steps_realized"]
                    for s in traced
                    if s["layers"]["schedules.steps_realized"]
                ]
            )
        elif name == "trace.overhead_s":
            if plain_run and traced_run:
                values[name] = statistics.median(traced_run) - statistics.median(plain_run)
            else:
                values[name] = None
        else:
            values[name] = _median([s["layers"][name] for s in traced])
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


# -- reporting -----------------------------------------------------------------


def _tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def run_record(workload, seed, seconds, trace):
    """What a result must carry to be compared with another machine or commit."""
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    src_lines = 0
    for dirpath, _, files in os.walk(SRC_DIR):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "src_lines": src_lines,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def report(outcome):
    workload, seed = outcome["workload"], outcome["seed"]
    samples, failures = outcome["samples"], outcome["failures"]
    print(
        f"workload {workload.name} seed {seed} trace {int(outcome['trace'])}: "
        f"{len(samples)} samples in {outcome['elapsed_s']:.1f} s, {len(failures)} failed"
    )
    if not outcome["trace"]:
        for name, unit in END_TO_END.items():
            values = outcome["series"][name]
            tail = _tail(values)
            tail_text = f"p{tail[0]:.0f} {tail[1]:.4f}" if tail else "tail n/a (n<11)"
            median = _median(values)
            median_text = "n/a" if median is None else f"{median:.4f}"
            print(f"  {name:<14} {median_text:>10} {unit:<3} median, {tail_text}, n={len(values)}")
    else:
        for name, entry in outcome["metrics"].items():
            value = entry["value"]
            text = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<30} {text:>14} {entry['unit']}")
        home = [n for n, (_, w) in PER_LAYER.items() if w == workload.name and n != "trace.overhead_s"]
        empty = [n for n in home if not outcome["metrics"][n]["value"]]
        if home:
            print(
                f"  layer check: {len(home) - len(empty)} of {len(home)} metrics homed on "
                f"{workload.name} are non-empty" + (f"; empty: {', '.join(empty)}" if empty else "")
            )
    print(f"  ops_failed {len(failures)} of {len(samples)} attempted")
    for index, reasons in failures:
        print(f"  sample {index} FAILED: {'; '.join(reasons)}")
    first = next((s for s in samples if "trajectory_sha256" in s), None)
    if first is not None:
        print(
            f"  steps_run {first['steps_run']} of {first['steps_requested']} requested, "
            f"exit code {first['exit_code']} (expected {workload.expected_exit}), "
            f"trajectory.csv sha256 {first['trajectory_sha256']}"
        )
    if workload.name == "gossip-s7" and seed == REFERENCE_SEED and not outcome["trace"]:
        b = S7_BASELINE
        run_s = _median(outcome["series"]["run_s"])
        rss = _median(outcome["series"]["peak_rss_mb"])
        print(
            f"  baseline cross-check, ROADMAP S7 row: {b['steps_requested']} requested, "
            f"{b['steps_run']} run, {b['run_s']} s, {b['peak_rss_mb']} MB"
        )
        if first is not None and run_s is not None:
            print(
                f"  this run:                           {first['steps_requested']} requested, "
                f"{first['steps_run']} run, {run_s:.1f} s, {rss:.0f} MB "
                f"(RSS includes verify; see bench/NOTES.md)"
            )


def result_line(outcome):
    metrics = outcome["metrics"]
    return json.dumps(
        {
            "correct": not outcome["failures"] and all(m["value"] is not None for m in metrics.values()),
            "attempted": len(outcome["samples"]),
            "failed": len(outcome["failures"]),
            "metrics": metrics,
        }
    )


# -- self-test -------------------------------------------------------------------


def self_test():
    """Tiny versions of the four workloads: every metric emitted, tampering caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for name, tiny in SELF_TEST_WORKLOADS.items():
        for trace in (False, True):
            outcome = measure(tiny, REFERENCE_SEED, 0, trace, probes=1)
            report(outcome)
            declared = spec["per_layer" if trace else "end_to_end"]
            emitted = outcome["metrics"]
            for entry in declared:
                got = emitted.get(entry["name"])
                if got is None or got["unit"] != entry["unit"] or got["value"] is None:
                    problems.append(f"{tiny.name}: metric {entry['name']} missing or wrong unit")
            if set(emitted) != {entry["name"] for entry in declared}:
                problems.append(f"{tiny.name}: emitted metrics differ from BENCHMARK.json")
            if outcome["failures"]:
                problems.append(f"{tiny.name}: {len(outcome['failures'])} samples failed")
            if trace:
                for metric, (_, home) in PER_LAYER.items():
                    if home == name and metric != "trace.overhead_s" and not emitted[metric]["value"]:
                        problems.append(f"{tiny.name}: {metric} is empty on its home workload")
    tampered = measure(
        SELF_TEST_WORKLOADS["gossip-s7"], REFERENCE_SEED, 0, False, probes=1, tamper_first=True
    )
    report(tampered)
    if len(tampered["failures"]) != 1:
        problems.append("a tampered trajectory.csv was not counted in ops_failed")
    for problem in problems:
        print(f"self-test: {problem}")
    print(f"self-test: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "groupsym", "__init__.py")):
        print(f"bench: no groupsym sources under {SRC_DIR}; run from a full checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        outcome = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(outcome)
        print("run record: " + json.dumps(run_record(name, args.seed, args.seconds, args.trace)))
        print(result_line(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
