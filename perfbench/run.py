"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it runs the same plan traced and reports the per-layer
metrics. Either way the correctness gate runs, a fingerprint of every
non-timing output is printed, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 only when every trial passes the gate, and 2 when the checkout
holds no lexgp sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env, gate, tracing, workloads  # noqa: E402

SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120


def _at_least(kind, minimum):
    def parse(text):
        value = kind(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return value
    return parse


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=_at_least(int, 0))
    parser.add_argument("--seconds", required=True, type=_at_least(float, 1))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload, seed, seconds, workdir: Path) -> float:
    """Seconds one cold set-up takes in a fresh interpreter."""
    workdir.mkdir()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
         workload.name, str(seed), str(seconds), str(workdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def pool_jobs() -> int:
    return min(2, os.cpu_count() or 1)


def report_gate(outcome) -> None:
    for k, problems in enumerate(outcome.failures):
        for problem in problems:
            print(f"gate FAIL {k}: {problem}")
    print(f"gate {outcome.attempted - outcome.failed}/{outcome.attempted} pass")
    print(f"fingerprint {gate.combine(outcome.digests)}")
    print("fingerprints " + " ".join(d[:16] for d in outcome.digests))


def result(outcome, metrics: dict) -> dict:
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def timed_run(workload, seed, seconds, workdir: Path) -> dict:
    """Untraced run: the end-to-end metrics."""
    setup = [probe_setup(workload, seed, seconds, workdir / f"setup{i}")
             for i in range(SETUP_SAMPLES)]
    inputs = workloads.prepare(workload, seed, seconds, workdir)
    if workload.cli:
        out_dir = workdir / "out"
        wall, printed = workloads.run_cli_matrix(workload, inputs, seed, out_dir, pool_jobs())
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        outcome, _ = workloads.check_cli_outputs(workload, inputs, seed, out_dir, wall, printed)
    else:
        outcome = workloads.run_engine_plan(workload, inputs, seed)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report_gate(outcome)
    print(f"setup_samples_s {setup}")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "gens_per_s": (outcome.generations / outcome.wall_s if outcome.wall_s else 0.0, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "test_mae_p50": (statistics.median(outcome.test_maes) if outcome.test_maes else 0.0,
                         "mae"),
        "pass_share": ((outcome.attempted - outcome.failed) / outcome.attempted, "share"),
    }
    return result(outcome, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def traced_run(workload, seed, seconds, workdir: Path) -> dict:
    """Traced run of the same plan: the per-layer metrics, plus the tracing
    overhead from one trial re-run untraced (traced wall / untraced - 1)."""
    setup_tracer = tracing.Tracer()
    with setup_tracer.install(tracing.DATA_TARGETS):
        inputs = workloads.prepare(workload, seed, seconds, workdir)

    jobs = pool_jobs()
    if workload.cli:
        dump_dir = workdir / "trace"
        dump_dir.mkdir()
        run_tracer = tracing.Tracer(dump_dir)
        out_dir = workdir / "out"
        with run_tracer.install(tracing.ENGINE_TARGETS + tracing.CLI_TARGETS):
            wall, printed = workloads.run_cli_matrix(workload, inputs, seed, out_dir, jobs)
        outcome, untraced_s = workloads.check_cli_outputs(
            workload, inputs, seed, out_dir, wall, printed)
        merged = run_tracer.merge_dumps()
        if jobs > 1 and merged != outcome.attempted:
            outcome.failures[0].append(f"trace: {merged} worker traces for "
                                       f"{outcome.attempted} trials")
        with tracing.Tracer().install(tracing.ENGINE_TARGETS):
            _, traced_s = workloads.run_one(workload, workload.methods[0],
                                            inputs.splits[0], seed, 0)
    else:
        run_tracer = tracing.Tracer()
        with run_tracer.install(tracing.ENGINE_TARGETS):
            outcome = workloads.run_engine_plan(workload, inputs, seed)
        wall, traced_s = outcome.wall_s, outcome.trial_walls[0]
        log, untraced_s = workloads.run_one(workload, workload.methods[0],
                                            inputs.splits[0], seed, 0)
        if gate.log_fingerprint(log) != outcome.digests[0]:
            outcome.failures[0].append("trace: traced and untraced runs of trial 0 differ")

    report_gate(outcome)
    for line in (tracing.span_table(setup_tracer, "setup")
                 + tracing.span_table(run_tracer, "run")):
        print(line)
    values = tracing.layer_metrics(run_tracer, setup_tracer, jobs=jobs, wall_s=wall,
                                   overhead_share=traced_s / untraced_s - 1.0)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return result(outcome, {k: {"value": v, "unit": units[k]} for k, v in values.items()})


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the scratch directory is removed
    # and the trial pool is shut down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    try:
        env.import_lexgp()
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env.environment()))
    print("plan " + json.dumps({
        "methods": workload.methods, "population": workload.population,
        "generations": workload.generations, "trials_per_method": workload.trials(args.seconds),
        "first_trial_seed": workloads.trial_seed(args.seed, 0),
        "jobs": pool_jobs() if workload.cli else 1}))
    sys.stdout.flush()

    work_root = env.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        run = traced_run if args.trace else timed_run
        record = run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
