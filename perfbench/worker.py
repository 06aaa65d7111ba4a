"""Runs one workload in a fresh interpreter; started by run.py.

Prints ``ready`` once set-up (import and seeded input generation) is done,
then runs the timed phases and prints one JSON line with the raw results.
With ``--setup-only`` it exits right after ``ready``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import redwords  # noqa: E402

from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, TaskLog  # noqa: E402


def _exact(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest_of(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"), default=_exact)
    return hashlib.sha256(text.encode()).hexdigest()


class Phase:
    """Outcome of running whole passes of one workload."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # seconds per verified task
        self.busy = 0.0
        self.passes = 0
        self.tasks = 0
        self.verified = 0
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []  # one per task of the first pass
        self.pass_counts: dict[str, int] = {}
        self.errors: list[str] = []


def run_pass(workload, phase: Phase, tracer, reference: list[str] | None = None) -> None:
    """Run one pass and add it to ``phase``.

    Busy time is the pass's set-up and task time; hashing results is left
    out.  A task that fails a check or raises is counted as failed and kept
    out of the latency samples; the run goes on.  Every task after the first
    pass, and every task when ``reference`` digests are given, must repeat
    its first result exactly.
    """
    t0 = perf_counter()
    ctx = workload.new_pass()
    phase.busy += perf_counter() - t0
    counts: Counter = Counter()
    for index, item in enumerate(workload.items):
        tracer.set_task(f"{phase.passes}.{index}")
        log = TaskLog()
        t0 = perf_counter()
        try:
            result = workload.task(ctx, item, tracer, log)
        except Exception as err:  # noqa: BLE001 - a raising task is one failed check
            result = None
            log.expect(f"raised {type(err).__name__}: {err}", False)
        elapsed = perf_counter() - t0
        phase.busy += elapsed
        digest = digest_of(result)
        if phase.passes == 0:
            phase.digests.append(digest)
        expected = reference if reference is not None else phase.digests if phase.passes else None
        if expected is not None:
            log.expect("result-repeats-exactly", digest == expected[index])
        failed = [name for name, passed in log.checks if not passed]
        phase.tasks += 1
        phase.attempted += len(log.checks)
        phase.failed += len(failed)
        if failed:
            if len(phase.errors) < 20:
                phase.errors.append(f"task {phase.passes}.{index} ({item!r:.80}): {', '.join(failed)}")
        else:
            phase.verified += 1
            phase.samples.append(elapsed)
        counts.update(log.counts)
        counts["checks"] += len(log.checks)
    if phase.passes == 0:
        phase.pass_counts = {"tasks": len(workload.items), **counts}
    phase.passes += 1


def more_passes(busy: float, passes: int, seconds: float) -> bool:
    """At least one pass; another only while it would end less than half a
    pass past ``seconds``."""
    return passes == 0 or busy * (1 + 0.5 / passes) < seconds


def run_untraced(workload, seconds: float) -> Phase:
    phase = Phase()
    while more_passes(phase.busy, phase.passes, seconds):
        run_pass(workload, phase, NullTracer())
    return phase


def run_traced(workload, seconds: float) -> tuple[Phase, Phase, Tracer]:
    """Alternate untraced and traced passes, so that both halves see the
    same load on the machine and their ratio is the tracing overhead."""
    untraced, traced, tracer = Phase(), Phase(), Tracer()
    while more_passes(untraced.busy + traced.busy, traced.passes, seconds):
        run_pass(workload, untraced, NullTracer())
        undo = workload.instrument(tracer)
        try:
            run_pass(workload, traced, tracer, reference=untraced.digests)
        finally:
            undo()
    return untraced, traced, tracer


def _phase_json(phase: Phase) -> dict:
    return {
        "samples": phase.samples,
        "busy": phase.busy,
        "passes": phase.passes,
        "tasks": phase.tasks,
        "verified": phase.verified,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "digest": hashlib.sha256("\n".join(phase.digests).encode()).hexdigest(),
        "pass_counts": phase.pass_counts,
        "errors": phase.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)
    # The library reads this cap at call time; the benchmark fixes its own sizes.
    os.environ.pop("REDWORDS_MAX_RANK", None)

    if not Path(redwords.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported redwords from {redwords.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, cls.rank - args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out = {}
    if args.trace:
        untraced, traced, tracer = run_traced(workload, args.seconds)
        seconds, calls = tracer.self_times()
        out["traced"] = {**_phase_json(traced), "self_seconds": seconds, "calls": calls}
        if args.spans_out:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps(tracer.to_json()))
    else:
        untraced = run_untraced(workload, args.seconds)
    out["untraced"] = _phase_json(untraced)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
