"""canmeas benchmark: one seeded workload, timed end to end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload measure_exact --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``cost_ref``,
``report_p50_ref``, ``peak_rss_mb``, ``setup_s``);
with ``--trace 1`` they are the per-layer figures of a separate traced
run.  Earlier lines carry context: the input digest, rounds run, raw
reports per second and, when tracing, the traced ``cost_ref``.  Details go to
``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
import cases  # noqa: E402
import oracle  # noqa: E402

# Fresh interpreters timed importing canmeas.cli, in two batches, one
# before the workload process and one after it: the host's speed shifts
# over seconds, and samples half a minute apart see more than one phase
# of it.  One more import runs first to write the bytecode caches, which
# every later CLI call finds in place.
SETUP_SAMPLES = 5
# A run may take this long beyond its --seconds before the workload
# process is killed: set-up timing, the checked round and, on `layered`,
# the minimum of whole timed rounds (about 50 s at --seconds 30).
DEADLINE_MARGIN_S = 140
# One interpreter, one thread: pin the BLAS pools numpy would start.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import canmeas.cli; print(time.perf_counter() - start)"
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    return env


def import_seconds() -> float:
    """Wall time of `import canmeas.cli` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, SRC],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


def input_digest(workdir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        h.update(name.encode())
        with open(os.path.join(workdir, name), "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description="canmeas benchmark")
    parser.add_argument("--workload", choices=cases.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "canmeas", "cli.py")):
        print(f"error: no canmeas sources under {SRC}", file=sys.stderr)
        return 2
    oracle.self_check()

    setup = []
    if not args.trace:
        import_seconds()
        setup = [import_seconds() for _ in range(SETUP_SAMPLES)]
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"work-{tag}-", dir=HERE)
    spans_path = os.path.join(RESULTS, f"{tag}.spans.jsonl")
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--src", SRC,
        "--workdir", workdir,
    ]
    if args.trace:
        command += ["--spans", spans_path]
    try:
        child = subprocess.Popen(command, env=child_env(), stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate(timeout=args.seconds + DEADLINE_MARGIN_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("error: the workload did not finish in time", file=sys.stderr)
            return 3
        if child.returncode != 0:
            print(f"error: the workload process exited with {child.returncode}", file=sys.stderr)
            return 3
        digest = input_digest(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setup += [import_seconds() for _ in range(SETUP_SAMPLES)]

    result = json.loads(out.strip().splitlines()[-1])
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in sorted(set(result["failures"]))[:20]:
        print(f"operation failed: {failure}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["layers"].items()}
        print(f"traced cost_ref {result['cost_ref']:.4f} ref over {result['rounds']} rounds")
    else:
        metrics = {
            "cost_ref": {"value": result["cost_ref"], "unit": "ref"},
            "report_p50_ref": {"value": result["report_p50_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        # Raw throughput swings with the host's speed by more than any
        # bound worth setting, so it is context, not a metric.
        print(f"{len(result['cases'])} cases, {result['rounds']} timed rounds, "
              f"reference pass {result['ref_pass_ms']:.3f} ms, {result['reports_per_s']:.3f} reports/s")
    print(f"inputs sha256 {digest}")
    summary = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({**summary, "setup_samples_s": setup, "inputs_sha256": digest, "worker": result}, handle, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
