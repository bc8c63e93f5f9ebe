"""One benchmark sample in a fresh process.

    python3 bench/worker.py CONFIG OUT_DIR RESULT_JSON [--setup-only] [--trace SPANS_JSONL]
                            [--sample-id N] [--tamper]

Times ``import groupsym`` plus config parsing (setup), the run verb from the
parsed config to the four artifacts on disk, and the verify verb on those
artifacts, then writes one JSON object to RESULT_JSON.  Only the standard
library is loaded before the setup clock starts.  --tamper corrupts one
trajectory value between run and verify; the self-test uses it to prove the
correctness gate counts a bad artifact.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback

# Repeat verify at least this often, for at least this long and for at least
# this share of the run's own time, and report the mean call.  Calls on one
# host alternate between fast and slow phases lasting seconds (23 ms
# quantum-gossip-s5 calls ranged from 14 to 30 ms in one process); the mean
# over a long enough window follows the share of slow time smoothly, where a
# median of the calls jumps between the two modes.
VERIFY_MIN_CALLS = 7
VERIFY_MIN_SECONDS = 1.0
VERIFY_RUN_SHARE = 0.3
VERIFY_MAX_CALLS = 1000


def _tamper(directory):
    """Change one weight in the first data row of trajectory.csv."""
    path = os.path.join(directory, "trajectory.csv")
    with open(path) as fh:
        lines = fh.readlines()
    fields = lines[1].rstrip("\n").split(",")
    fields[1] = repr(float(fields[1]) + 1e-3)
    lines[1] = ",".join(fields) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def _run_and_verify(harness, config, out_dir, flags, traced):
    record = {}
    try:
        t0 = time.perf_counter()
        artifacts = harness.execute(config, out_dir=out_dir)
        record["run_s"] = time.perf_counter() - t0
    except Exception:
        record["error"] = traceback.format_exc(limit=3)
        return record

    record["exit_code"] = artifacts.exit_code
    record["steps_run"] = int(artifacts.result.steps_run)
    record["steps_requested"] = int(config.steps)
    record["bytes_written"] = sum(
        os.path.getsize(os.path.join(artifacts.directory, name)) for name in artifacts.files
    )
    if "--tamper" in flags:
        _tamper(artifacts.directory)
    with open(os.path.join(artifacts.directory, "trajectory.csv"), "rb") as fh:
        record["trajectory_sha256"] = hashlib.sha256(fh.read()).hexdigest()

    min_seconds = max(VERIFY_MIN_SECONDS, VERIFY_RUN_SHARE * record["run_s"])
    times = []
    while True:
        t0 = time.perf_counter()
        report = harness.verify(artifacts.directory)
        times.append(time.perf_counter() - t0)
        if traced or len(times) >= VERIFY_MAX_CALLS:
            break
        if len(times) >= VERIFY_MIN_CALLS and sum(times) >= min_seconds:
            break
    record["verify_s"] = sum(times) / len(times)
    record["verify_calls"] = len(times)
    record["verify_failures"] = [c.line() for c in report.checks if c.status == "fail"]
    return record


def main(argv):
    t_start = time.perf_counter()
    import groupsym.config
    import groupsym.harness

    config_path, out_dir, result_path, *flags = argv
    tracer = None
    if "--trace" in flags:
        from tracer import Tracer

        tracer = Tracer(int(flags[flags.index("--sample-id") + 1]) if "--sample-id" in flags else 0)
        tracer.install()

    config = groupsym.config.parse_config(config_path)
    record = {"setup_s": time.perf_counter() - t_start}
    if "--setup-only" not in flags:
        record.update(_run_and_verify(groupsym.harness, config, out_dir, flags, tracer is not None))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(flags[flags.index("--trace") + 1])
        record["layers"] = tracer.layers()
        record["layers"]["harness.bytes_written"] = record.get("bytes_written", 0)
        record["layers"]["applications.steps_run"] = record.get("steps_run", 0)

    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
