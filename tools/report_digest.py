"""One SHA-256 over every report the benchmark's workloads produce.

Builds every case of the named workloads at each seed (``bench/cases.py``),
runs each command line in this process through ``canmeas.cli.main`` as
the benchmark's worker does (``bench/worker.call``), and hashes, in
order, the workload, the seed, the case name, the basenames of its argv,
the exit code, stdout and stderr.  Two checkouts whose digests
agree print the same bytes on every case, so a change meant to keep
reports byte-identical can be checked with::

    PYTHONHASHSEED=0 python tools/report_digest.py --seeds 0 1
    PYTHONHASHSEED=0 python tools/report_digest.py --seeds 0 1 --src OTHER/src

``--src`` points at the other checkout's sources; ``--workloads`` and
``--seeds`` narrow the run to a quick check while editing, such as
``--workloads layered --seeds 0``.  The exact lanes at seed 0
(``--workloads measure_exact layered --seeds 0``) are checked against a
recorded digest by ``tests/test_report_digest.py``; ``cli_corpus``
prints LAPACK floats, so it stays a check by hand.

The benchmark runs every case under ``PYTHONHASHSEED=0``, and the script
refuses any other hash seed, so a digest describes the runs the
benchmark makes.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest(workloads: list[str], seeds: list[int]) -> tuple[str, int]:
    """The SHA-256 over every case, and the number of cases."""
    import cases
    from worker import call

    from canmeas import cli

    h = hashlib.sha256()
    count = 0
    for workload in workloads:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                for case in cases.build(workload, seed, workdir):
                    code, out, err = call(cli, case.argv)
                    fields = [workload, str(seed), case.name]
                    fields += [os.path.basename(a) for a in case.argv]
                    fields += [str(code), out.replace(workdir, "<workdir>"), err.replace(workdir, "<workdir>")]
                    for field in fields:
                        data = field.encode()
                        h.update(len(data).to_bytes(8, "big") + data)
                    count += 1
    return h.hexdigest(), count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument(
        "--workloads", nargs="+", default=["measure_exact", "layered", "cli_corpus"]
    )
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="canmeas sources to run")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("error: run with PYTHONHASHSEED=0, as the benchmark does", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]
    value, count = digest(args.workloads, args.seeds)
    print(f"{value}  {count} cases, workloads {' '.join(args.workloads)}, seeds {' '.join(map(str, args.seeds))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
