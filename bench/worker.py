"""Runs one workload inside this process and prints its figures as JSON.

``run.py`` starts this file in a fresh interpreter with one BLAS thread.
It imports canmeas from the checkout's ``src``, builds the seeded cases,
and then:

1. runs one untimed round in which every report is checked against the
   oracle and its SHA-256 digest is kept;
2. runs whole timed rounds while they fit in ``--seconds`` (at least
   ``MIN_ROUNDS``), each call to ``canmeas.cli.main`` bracketed by passes
   of the reference loop, and each report compared with the first
   round's digest, so a report must repeat byte for byte;
3. reports each case's median cost in reference-loop units.

With ``--trace 1`` the timed rounds run with every traced function
wrapped (see tracing.py) and the output holds per-layer figures instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

import cases as workloads
import refloop
import tracing

MIN_ROUNDS = 3
# Reference-loop passes around a case: enough to cover about this share
# of the case's own duration, so the short loop's jitter averages out on
# long cases, within [1, MAX_PASSES].
REF_SHARE = 0.1
MAX_PASSES = 24
# The host's speed shifts by tens of percent within seconds, so passes
# before and after a multi-second call miss what happened during it.
# While an untraced call runs, a timer signal runs one reference pass
# every PROBE_INTERVAL_S; the passes are subtracted from the call's time
# and weigh in the call's reference in proportion to their number.
PROBE_INTERVAL_S = 0.1


def call(cli, argv):
    """Run one command line; return (exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a crash of the benchmark
            err.write(f"{type(exc).__name__}: {exc}")
            code = None
    return code, out.getvalue(), err.getvalue()


def reference(passes: int) -> float:
    return sum(refloop.timed() for _ in range(passes)) / passes


class Probe:
    """Reference passes taken from a timer signal while a call runs."""

    def __init__(self):
        self.passes: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        start = time.perf_counter()
        self.passes.append(refloop.timed())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.passes, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


class Run:
    def __init__(self, cli, case_list):
        self.cli = cli
        self.cases = case_list
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.digests: list[str | None] = []

    def _fail(self, case, code, err):
        self.failed += 1
        self.failures.append(f"{case.name}: exit {code}: {err.strip()[-300:]}")

    def checked_round(self) -> list[float]:
        """Untimed-for-the-metrics round: check every report, keep digests."""
        durations = []
        for case in self.cases:
            start = time.perf_counter()
            code, out, err = call(self.cli, case.argv)
            durations.append(time.perf_counter() - start)
            self.attempted += 1
            if code != 0:
                if code is None or code in (2, 3):
                    self._fail(case, code, err)
                else:
                    self.problems.append(f"{case.name}: exit {code}, a check inside canmeas failed")
                self.digests.append(None)
                continue
            report = json.loads(out)
            if report.get("ok") is not True or report.get("command") != case.argv[0]:
                self.problems.append(f"{case.name}: report is not ok")
            self.problems += [f"{case.name}: {p}" for p in case.check(report)]
            self.digests.append(hashlib.sha256(out.encode()).hexdigest())
        return durations

    def timed_round(self, gaps, tracer=None):
        """One timed pass over the cases.

        Returns per-case raw seconds and reference seconds, and with a
        tracer the spans each case recorded.
        """
        raw, ref, spans = [], [], []
        probe = contextlib.nullcontext() if tracer is not None else Probe()
        before = reference(gaps[0])
        for i, case in enumerate(self.cases):
            with probe:
                start = time.perf_counter()
                code, out, err = call(self.cli, case.argv)
            elapsed = time.perf_counter() - start
            after = reference(gaps[i + 1])
            near = (before + after) / 2
            if tracer is None and probe.passes:
                elapsed -= probe.spent
                k = len(probe.passes)
                near = (2 * near + sum(probe.passes)) / (k + 2)
            raw.append(elapsed)
            ref.append(near)
            before = after
            self.attempted += 1
            if code != 0:
                self._fail(case, code, err)
            elif hashlib.sha256(out.encode()).hexdigest() != self.digests[i]:
                self.problems.append(f"{case.name}: report differs from the first round's")
            if tracer is not None:
                spans.append(tracer.take())
        return raw, ref, spans


def _gaps(durations, pass_seconds):
    # Passes in the gap before case i and after the last case; a gap
    # serves both neighbours, so it takes the larger of their needs.
    need = [min(MAX_PASSES, max(1, round(REF_SHARE * d / pass_seconds))) for d in durations]
    return [need[0]] + [max(a, b) for a, b in zip(need, need[1:])] + [need[-1]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True, help="directory holding the canmeas package")
    parser.add_argument("--workdir", required=True, help="directory for the generated documents")
    parser.add_argument("--spans", help="file to write the last traced round's spans to")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from canmeas import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"canmeas was imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    clock = time.perf_counter()
    case_list = workloads.build(args.workload, args.seed, args.workdir)
    built = time.perf_counter()
    run = Run(cli, case_list)
    durations = run.checked_round()
    checked = time.perf_counter()
    pass_seconds = statistics.median(refloop.timed() for _ in range(9))
    gaps = _gaps(durations, pass_seconds)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    rounds = []
    # Whole rounds only; start another while it should end within the
    # run's seconds, judging by the last one.
    last = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - clock + last < args.seconds:
        begun = time.perf_counter()
        raw, ref, spans = run.timed_round(gaps, tracer)
        last = time.perf_counter() - begun
        layers = counts = None
        if tracer is not None:
            layers = [tracing.self_times(case_spans) for case_spans in spans]
            counts = tracer.take_counts()
            last_spans = spans
        rounds.append((raw, ref, layers, counts))

    n = len(case_list)
    norm = [statistics.median(r[0][i] / r[1][i] for r in rounds) for i in range(n)]
    raw_median = [statistics.median(r[0][i] for r in rounds) for i in range(n)]
    result = {
        "problems": run.problems,
        "failures": run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "rounds": len(rounds),
        "build_s": built - clock,
        "checked_round_s": checked - built,
        "cost_ref": sum(norm),
        "reports_per_s": n / sum(raw_median),
        "report_p50_ref": statistics.median(norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ref_pass_ms": 1000 * statistics.median(x for r in rounds for x in r[1]),
        "cases": {
            c.name: {"ref": x, "raw_s": y, "rounds_ref": [r[0][i] / r[1][i] for r in rounds]}
            for i, (c, x, y) in enumerate(zip(case_list, norm, raw_median))
        },
    }
    if tracer is not None:
        result["layers"] = _layer_figures(rounds, run)
        if args.spans:
            _write_spans(args.spans, case_list, last_spans, rounds[-1][1])
    print(json.dumps(result))
    return 0


def _layer_figures(rounds, run) -> dict:
    """Per traced function: median over rounds of the summed normalised
    self time, and calls and counts, which must repeat in every round."""
    figures = {}
    for index, name in enumerate(tracing.FUNCTIONS):
        per_round_self, per_round_calls = [], []
        for raw, ref, layers, _ in rounds:
            per_round_self.append(sum(layers[i][index][0] / ref[i] for i in range(len(ref))))
            per_round_calls.append(sum(layers[i][index][1] for i in range(len(ref))))
        if len(set(per_round_calls)) != 1:
            run.problems.append(f"{name}: calls differ between rounds: {per_round_calls}")
        figures[f"{name}.self_ref"] = (statistics.median(per_round_self), "ref")
        figures[f"{name}.calls"] = (per_round_calls[0], "count")
    for name, (quantity, unit, _, _) in tracing.COUNTS.items():
        values = [r[3][name] for r in rounds]
        if len(set(values)) != 1:
            run.problems.append(f"{name}.{quantity}: differs between rounds: {values}")
        figures[f"{name}.{quantity}"] = (values[0], unit)
    return figures


def _write_spans(path, case_list, spans, ref) -> None:
    """The last traced round's spans, one JSON object per case.

    Each span is [function index, start and duration in microseconds
    from the case's first span, self time in microseconds].
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"functions": tracing.FUNCTIONS}, handle)
        handle.write("\n")
        for case, case_spans, ref_s in zip(case_list, spans, ref):
            origin = min((s[1] for s in case_spans), default=0.0)
            rows = [
                [index, round(1e6 * (start - origin), 1), round(1e6 * (end - start), 1), round(1e6 * own, 1)]
                for index, start, end, own in case_spans
            ]
            json.dump({"case": case.name, "ref_s": ref_s, "spans": rows}, handle)
            handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
