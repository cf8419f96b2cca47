"""Self-tests of the benchmark: the reference evaluator, the correctness
gate, the fingerprints and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import env, gate, reference, tracing, workloads

lexgp = env.import_lexgp()
from lexgp.expr import DEFAULT_OPERATORS, OperatorSet, Program  # noqa: E402

OPS = {op.name: op for op in DEFAULT_OPERATORS}


def program(*tokens) -> Program:
    """Prefix program from operator names, ``"x<k>"`` features and floats."""
    nodes = []
    for token in tokens:
        if isinstance(token, str) and token.startswith("x"):
            nodes.append(int(token[1:]))
        elif isinstance(token, str):
            nodes.append(OPS[token])
        else:
            nodes.append(float(token))
    return Program(nodes)


def column(*values) -> np.ndarray:
    return np.asarray(values, dtype=float)[:, None]


def agrees(prog: Program, X) -> np.ndarray:
    ours = reference.evaluate(prog.nodes, X)
    assert np.array_equal(ours, lexgp.expr.predict(prog, X))
    return ours


# ------------------------------------------------- reference evaluator

def test_reference_matches_predict_on_random_programs():
    rng = np.random.default_rng(11)
    ops = OperatorSet(3, (-3.0, 3.0))
    X = rng.normal(0.0, 4.0, size=(64, 3))
    X[::7, 0] = 0.0
    X[::5, 1] = 1e-7
    X[::9, 2] = 1e200
    programs = [lexgp.expr.random_program((3, 50), ops, rng) for _ in range(300)]
    programs += [lexgp.expr.subtree_crossover(a, b, (3, 50), rng)
                 for a, b in zip(programs, programs[1:])]
    for prog in programs:
        out = agrees(prog, X)
        assert np.isfinite(out).all()


def test_protected_division():
    X = np.array([[3.0, 0.0], [3.0, 5e-7], [3.0, -5e-7], [3.0, 1e-6], [3.0, -2.0]])
    out = agrees(program("/", "x0", "x1"), X)
    assert out.tolist() == [1.0, 1.0, 1.0, 3.0 / 1e-6, -1.5]


def test_protected_log():
    out = agrees(program("log", "x0"), column(0.0, 5e-7, -5e-7, 1e-6, -2.0, 3.0))
    assert out.tolist() == [0.0, 0.0, 0.0, math.log(1e-6), math.log(2.0), math.log(3.0)]


def test_exp_clamps_its_argument():
    out = agrees(program("exp", "x0"), column(100.0, -100.0, 32.0, 31.0))
    assert out.tolist() == [math.exp(32.0), math.exp(-32.0), math.exp(32.0), math.exp(31.0)]


def test_overflow_maps_to_bounds_and_nan_to_zero():
    X = np.array([[1e200, -1e200]])
    assert agrees(program("*", "x0", "x0"), X).tolist() == [1e150]
    assert agrees(program("*", "x0", "x1"), X).tolist() == [-1e150]
    assert agrees(program("-", "*", "x0", "x0", "*", "x0", "x0"), X).tolist() == [0.0]
    # A finite value beyond the bound is not an overflow and stays as it is.
    assert agrees(program("*", "x0", 10.0), X).tolist() == [1e200 * 10.0]


def test_constant_program_broadcasts():
    assert agrees(program("+", 0.5, 0.25), column(1.0, 2.0)).tolist() == [0.75, 0.75]


def test_malformed_programs_are_rejected():
    X = column(1.0)
    for nodes in ([OPS["+"], 0], [0, 1], [OPS["sin"], 3]):
        with pytest.raises(ValueError):
            reference.evaluate(nodes, X)


# ------------------------------------------------------------- gate

@pytest.fixture(scope="module")
def trial():
    split = lexgp.data.generate_uball5d(n_train=64, n_test=32, rng=np.random.default_rng(3))
    config = lexgp.engine.EngineConfig(
        population_size=30, generations=4,
        selection=lexgp.selection.SelectionConfig(method="lex_eps_e_mad"))
    log = lexgp.engine.run_trial(config, split, np.random.default_rng(3))
    return log, split


def _replace_records(log, **changes):
    return dataclasses.replace(log, records=[dataclasses.replace(log.records[0], **changes)]
                               + log.records[1:])


def test_gate_accepts_a_real_trial(trial):
    log, split = trial
    assert gate.check_run_log(log, split, 4) == []


def _corruptions(log):
    shifted = [OPS["+"], 1.0] + list(log.best_program.nodes)
    rising = [dataclasses.replace(r, best_train_mae=r.best_train_mae + k)
              for k, r in enumerate(log.records)]
    return {
        "test_mae": dataclasses.replace(log, test_mae=log.test_mae * (1 + 1e-9)),
        "train_mae": dataclasses.replace(log, best_train_mae=log.best_train_mae * 0.5),
        "record_count": dataclasses.replace(log, records=log.records[:-1]),
        "rising_best": dataclasses.replace(log, records=rising),
        "nan_diversity": _replace_records(log, diversity=math.nan),
        "generation_label": _replace_records(log, generation=7),
        "program": dataclasses.replace(log, best_program=Program(shifted, log.best_program.age)),
        "oversized": dataclasses.replace(
            log, best_program=Program([OPS["+"]] * 30 + [0] * 31)),
    }


def test_gate_flags_every_corruption(trial):
    log, split = trial
    for name, corrupted in _corruptions(log).items():
        assert gate.check_run_log(corrupted, split, 4), name


def test_log_fingerprint_ignores_only_timing(trial):
    log, _ = trial
    slower = dataclasses.replace(log, total_s=log.total_s + 1.0, records=[
        dataclasses.replace(r, elapsed_s=r.elapsed_s + 1.0) for r in log.records])
    assert gate.log_fingerprint(slower) == gate.log_fingerprint(log)
    for corrupted in _corruptions(log).values():
        assert gate.log_fingerprint(corrupted) != gate.log_fingerprint(log)


def test_a_crashing_trial_counts_as_failed(trial, monkeypatch):
    def crash(*args):
        raise FloatingPointError("injected")

    monkeypatch.setattr(lexgp.engine, "run_trial", crash)
    small = workloads.Workload("small", ("lex",), 30, 4, 1.0)
    outcome = workloads.run_engine_plan(small, workloads.Inputs([trial[1]] * 2), 3)
    assert (outcome.attempted, outcome.failed, outcome.generations) == (2, 2, 0)


SMALL_CLI = workloads.Workload("small_cli", ("lex", "afp"), 20, 3, 1.0, cli=True)


@pytest.fixture()
def cli_run(tmp_path):
    inputs = workloads.prepare(SMALL_CLI, 5, 1, tmp_path)
    out_dir = tmp_path / "out"
    wall, printed = workloads.run_cli_matrix(SMALL_CLI, inputs, 5, out_dir, jobs=1)
    return inputs, out_dir, wall, printed


def _check(cli_run):
    inputs, out_dir, wall, printed = cli_run
    outcome, _ = workloads.check_cli_outputs(SMALL_CLI, inputs, 5, out_dir, wall, printed)
    return outcome


def test_cli_gate_accepts_a_real_matrix(cli_run):
    outcome = _check(cli_run)
    assert outcome.attempted == 2 * SMALL_CLI.trials(1)
    assert outcome.failed == 0, outcome.failures


def test_cli_gate_flags_a_truncated_trial_log(cli_run):
    path = cli_run[1] / gate.trial_csv_name("afp", 0)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert _check(cli_run).failed == 1


def test_cli_gate_flags_a_wrong_summary(cli_run):
    path = cli_run[1] / "summary.csv"
    header, *rows = path.read_text().splitlines()
    method, problem, median, rank, total = rows[0].split(",")
    rows[0] = ",".join([method, problem, repr(float(median) * 1.001), rank, total])
    path.write_text("\n".join([header] + rows) + "\n")
    assert _check(cli_run).failed == SMALL_CLI.trials(1)


def test_cli_gate_flags_a_csv_the_library_does_not_reproduce(cli_run):
    path = cli_run[1] / gate.trial_csv_name("lex", 0)
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    cells[2] = repr(float(cells[2]) / 2)      # diversity, still in range
    path.write_text("\n".join([header, ",".join(cells)] + rest) + "\n")
    assert _check(cli_run).failed == 1


def test_csv_fingerprint_ignores_only_elapsed(tmp_path):
    texts = {"base": "generation,best_train_mae,elapsed_s\n0,0.5,1.0\n",
             "slower": "generation,best_train_mae,elapsed_s\n0,0.5,2.0\n",
             "other": "generation,best_train_mae,elapsed_s\n0,0.25,1.0\n"}
    digests = {}
    for name, text in texts.items():
        (tmp_path / name).mkdir()
        path = tmp_path / name / "lex_trial000.csv"
        path.write_text(text)
        digests[name] = gate.csv_fingerprint(path)
    assert digests["base"] == digests["slower"] != digests["other"]


# ----------------------------------------------------------- tracing

def _traced_trial(trial):
    _, split = trial
    tracer = tracing.Tracer()
    with tracer.install(tracing.ENGINE_TARGETS):
        log, _ = workloads.run_one(workloads.Workload("t", ("lex",), 30, 4, 1.0),
                                   "lex", split, 3, 0)
    return tracer, log


def test_tracer_counts_repeat_and_self_times_add_up(trial):
    first, log = _traced_trial(trial)
    second, again = _traced_trial(trial)
    assert gate.log_fingerprint(log) == gate.log_fingerprint(again)
    assert first.counts == second.counts and first.cases == second.cases
    assert {k: v[0] for k, v in first.totals.items()} == {k: v[0] for k, v in second.totals.items()}
    assert first.counts["program_generations"] == 30 * 4
    assert first.totals["selection.error_matrix"][0] == 4
    root = first.totals["engine.run_trial"]
    self_sum = sum(entry[2] for entry in first.totals.values())
    assert math.isclose(self_sum, root[1], rel_tol=1e-6)


def test_tracer_restores_the_originals():
    before = lexgp.engine.predict
    with tracing.Tracer().install(tracing.ENGINE_TARGETS):
        assert lexgp.engine.predict is not before
    assert lexgp.engine.predict is before


# -------------------------------------------------- command contract

def _command(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_traced_cli_run_collects_every_worker_trace():
    # A fresh interpreter, so lexgp.cli is first imported by the tracer.
    done = _command(env.ROOT, "--workload", "cli_matrix", "--seed", "2",
                    "--seconds", "2", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["correct"] and record["failed"] == 0
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER}
    assert metrics["expr.predict.calls_per_program_gen"] > 2
    assert metrics["afp.survival.candidates"] == 2 * 200 + 1
    assert 0 < metrics["cli.pool_busy_share"] <= 1

def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(Path(workloads.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _command(tmp_path, "--workload", "lex_p1000", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no lexgp sources" in done.stderr
