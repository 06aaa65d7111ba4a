"""Benchmark of the redwords library: one workload, one seed, one run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exchange-walk-s5 --seed 1 --seconds 25 --trace 0

The workload runs in a fresh interpreter (``worker.py``) that imports
``src/redwords`` and receives only inputs generated from ``--seed``.
Set-up (interpreter start, import and input generation) is timed in nine
extra set-up-only interpreters as well, five before the timed one and four
after it, and ``setup_s`` is the median of the ten.  The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Lines before it give the environment, the exact-output digest, the work
counts, ``task_p90_s`` and ``fail_ratio``; the full record goes to
``perfbench/results/``, and the traced run's spans next to it.

``--tiny`` runs every workload one rank smaller; the benchmark's own tests
use it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 9

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_s": "s",
    "peak_rss_mb": "MB",
}
# Every span the workloads record, around one public library call each.
SPANS = (
    "coxeter.exchange",
    "coxeter.reduced_words",
    "coxeter.reduced_word_count",
    "markov.build_chain",
    "markov.is_column_stochastic",
    "markov.is_strongly_connected",
    "markov.stationary_distribution",
    "markov.fixes",
    "markov.spectrum",
    "markov.simulate",
    "markov.total_variation",
    "markov.charpoly",
    "stanley.schur_expansion",
    "stanley.schur_expansion_via_eg",
    "stanley.schur_expansion_via_linear_algebra",
    "stanley.omega_duality_check",
    "stanley.skew_by_s1_check",
    "stanley.reduced_word_count_from_squarefree",
    "crystal.factorization_crystal",
    "crystal.components",
    "crystal.highest_weights",
    "edelman_greene.eg_insert_word",
    "edelman_greene.ck_graph",
    "edelman_greene.components",
    "edelman_greene.same_p_tableau_iff_ck_equivalent",
    "edelman_greene.ck_edge_operator_identity",
    "edelman_greene.intertwining_check",
    "checks.coxeter",
    "checks.crystal",
    "checks.tableaux",
    "checks.stanley",
    "checks.eg",
    "checks.markov",
    "cli.main",
)
# Work counts the tasks log, reported per task in the traced run.
COUNTS = (
    "coxeter.reduced_words.words",
    "markov.states",
    "markov.nonzeros",
    "markov.simulate.steps",
    "crystal.vertices",
    "crystal.edges",
    "edelman_greene.insertions",
    "edelman_greene.ck_edges",
)
TRACE = {
    "trace.untraced_tasks_per_s": "1/s",
    "trace.traced_tasks_per_s": "1/s",
    "trace.overhead": "%",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANS:
        units[f"{name}.s"] = "s/task"
        units[f"{name}.calls"] = "count/task"
    units.update({name: "count/task" for name in COUNTS})
    units.update(TRACE)
    return units


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def spawn(args, setup_only: bool, spans_out: Path | None = None) -> tuple[float, dict | None]:
    """Start a worker interpreter; return its set-up time and its result."""
    cmd = [
        sys.executable, "-I", "-S", str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - start
            rest = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup, (json.loads(rest.splitlines()[-1]) if rest.strip() else None)


def end_to_end_metrics(setups: list[float], result: dict) -> dict[str, float]:
    phase = result["untraced"]
    return {
        "setup_s": statistics.median(setups),
        "tasks_per_s": phase["verified"] / phase["busy"],
        "task_p50_s": statistics.median(phase["samples"]) if phase["samples"] else 0.0,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer_metrics(result: dict) -> dict[str, float]:
    traced, untraced = result["traced"], result["untraced"]
    tasks = traced["tasks"]
    per_pass = traced["pass_counts"]["tasks"]
    out = {}
    for name in SPANS:
        out[f"{name}.s"] = traced["self_seconds"].get(name, 0.0) / tasks
        out[f"{name}.calls"] = traced["calls"].get(name, 0) / tasks
    for name in COUNTS:
        out[name] = traced["pass_counts"].get(name, 0) / per_pass
    plain = untraced["verified"] / untraced["busy"]
    with_spans = traced["verified"] / traced["busy"]
    out["trace.untraced_tasks_per_s"] = plain
    out["trace.traced_tasks_per_s"] = with_spans
    out["trace.overhead"] = 100 * (plain / with_spans - 1) if with_spans else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one rank smaller, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "redwords" / "__init__.py").is_file():
        print(f"error: no redwords sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}"
    spans_out = RESULTS / f"{stem}-spans.json" if args.trace else None
    # Set-up probes run before and after the timed worker, so that a burst
    # of load on the machine at one moment cannot move them all.
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [spawn(args, setup_only=True)[0] for _ in range(probes // 2 + probes % 2)]
        setup, result = spawn(args, setup_only=False, spans_out=spans_out)
        setups += [setup] + [spawn(args, setup_only=True)[0] for _ in range(probes // 2)]
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, units = per_layer_metrics(result), per_layer_units()
    else:
        metrics, units = end_to_end_metrics(setups, result), END_TO_END
    phases = [result[k] for k in ("untraced", "traced") if k in result]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    samples = result["untraced"]["samples"]
    p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) >= 100 else None
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(args.seed),
        "digest": result["untraced"]["digest"],
        "work_counts_per_pass": result["untraced"]["pass_counts"],
        "task_samples": len(samples),
        "task_p90_s": p90,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "setup_samples_s": setups,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "raw": result,
        "spans_file": str(spans_out.relative_to(ROOT)) if spans_out else None,
    }
    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{stem}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  commit {env['commit']}")
    print(f"environment: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"digest sha256:{record['digest']}")
    print(f"work counts per pass: {json.dumps(record['work_counts_per_pass'], sort_keys=True)}")
    print(
        f"tasks {sum(p['tasks'] for p in phases)}, latency samples {len(samples)}, task_p90_s "
        + (f"{p90:.6g}" if p90 is not None else "not reported (fewer than 100 samples)")
    )
    print(f"fail_ratio {failed}/{attempted} = {record['fail_ratio']:.6g}")
    for phase in phases:
        for error in phase["errors"]:
            print(f"FAILED {error}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
