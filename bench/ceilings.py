"""Size ceilings of canmeas's exponential routes, as reference figures.

For each route and each graph family this finds the largest size that
finishes within LIMIT_S seconds.  Every attempt runs in its own
interpreter that is killed at the limit and capped at 2 GiB of address
space, so a blown-up enumeration ends as "did not finish" instead of
taking the machine's memory.  Sizes are tried in increasing order and a family
stops at its first miss.

    python3 bench/ceilings.py

Run it from the root of a checkout; it prints one line per attempt and a
summary table.  The figures go into bench/README.md, not into the
benchmark's metrics.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
import inputs  # noqa: E402
from run import child_env  # noqa: E402

LIMIT_S = 20
MEMORY_LIMIT = 2 << 30

_FOSTER = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from canmeas.documents import load_document; from canmeas.measures import foster_by_trees; "
    "foster_by_trees(load_document(sys.argv[2]).metric())"
)
_CLI = "import sys; sys.path.insert(0, sys.argv[1]); from canmeas.cli import main; sys.exit(main(sys.argv[2:]))"

ROUTES = {
    "foster_by_trees": lambda path: ["-c", _FOSTER, SRC, path],
    "trees": lambda path: ["-c", _CLI, SRC, "trees", "--input", path],
    "minors": lambda path: ["-c", _CLI, SRC, "minors", "--input", path],
    "limit": lambda path: ["-c", _CLI, SRC, "limit", "--input", path],
    "measure --formulation all": lambda path: ["-c", _CLI, SRC, "measure", "--input", path],
}
FAMILIES = {
    "grid": [(f"{r}x{c}", inputs.grid(r, c)) for r, c in ((2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6))],
    "K_n": [(f"K{n}", inputs.complete(n)) for n in range(4, 11)],
}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def attempt(argv) -> tuple[float | None, str]:
    """(seconds, "ok") if the run passed within LIMIT_S, else (None, why)."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, *argv],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        preexec_fn=_limit_memory,
    )
    try:
        code = child.wait(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        return None, "killed at the limit"
    if code != 0:
        return None, f"exit {code}"
    return time.perf_counter() - start, "ok"


def main() -> int:
    rng = Random("ceilings")
    table = {}
    with tempfile.TemporaryDirectory(prefix="work-ceilings-", dir=HERE) as workdir:
        for family, graphs in FAMILIES.items():
            docs = []
            for name, graph in graphs:
                layering = inputs.random_layering(rng, graph[1], (4, 1, 1))
                coords = inputs.layer_coordinates(rng, layering)
                path = os.path.join(workdir, f"{name}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(inputs.document(graph, layering=layering, coords=coords), handle)
                docs.append((name, path))
            for route, make in ROUTES.items():
                best = None
                for name, path in docs:
                    took, why = attempt(make(path))
                    print(f"{route:28s} {name:6s} {why if took is None else f'{took:.2f} s'}", flush=True)
                    if took is None:
                        break
                    best = (name, took)
                table[(route, family)] = best
    print(f"\nlargest size within {LIMIT_S} s (minors and limit: 3 layers, the first with two thirds of the edges)")
    for (route, family), best in table.items():
        shown = "none" if best is None else f"{best[0]} ({best[1]:.1f} s)"
        print(f"{route:28s} {family:5s} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
