"""Reports on the exact lanes are byte-identical to a recorded digest.

``tools/report_digest.py`` hashes every report that the benchmark's
``measure_exact`` and ``layered`` workloads print at seed 0.  Those
reports are computed in exact arithmetic, and a float in them is an
exact value rounded once, so their bytes do not depend on the
platform's linear algebra library; a change that alters them also
updates ``EXACT_LANES_DIGEST`` and says why.  ``cli_corpus`` prints
LAPACK floats and stays a manual check (see the tool's docstring).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "report_digest.py"
EXACT_LANES = ["--workloads", "measure_exact", "layered", "--seeds", "0"]
EXACT_LANES_DIGEST = (
    "a9e5fba33c62668ad383d93aa399b718dcaf5081401f6484ad6be4ce64951dcf"
    "  74 cases, workloads measure_exact layered, seeds 0"
)


def run_tool(hash_seed):
    # No bytecode is written, so nothing lands under bench/.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, str(TOOL), *EXACT_LANES],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_exact_lane_reports_match_the_recorded_digest():
    done = run_tool("0")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == EXACT_LANES_DIGEST + "\n"


def test_tool_refuses_any_other_hash_seed():
    for hash_seed in (None, "1"):
        done = run_tool(hash_seed)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: run with PYTHONHASHSEED=0, as the benchmark does\n"
