import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lexgp
from lexgp.cli import (ExperimentConfig, TrialResult, build_parser, emit_summary, main,
                       parse_config, run_experiment)
from lexgp.data import Dataset, load_csv, save_csv
from lexgp.selection import Method

GEN_HEADER = ["generation", "best_train_mae", "diversity", "median_cases_used", "elapsed_s"]


def tiny_config(tmp_path, **overrides):
    base = dict(methods=[Method.LEX], trials=2, seed=11, population=10,
                generations=2, out=str(tmp_path / "out"), jobs=1)
    base.update(overrides)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def result(method, test_mae, problem="p", total_s=1.0):
    return TrialResult(Method(method), problem, test_mae, total_s)


def test_emit_summary_median_and_single_rank():
    rows = emit_summary([result("lex", 0.1), result("lex", 0.3), result("lex", 0.2)])
    assert len(rows) == 1
    assert rows[0].median_test_mae == pytest.approx(0.2)
    assert rows[0].rank == 1.0


def test_emit_summary_ranks_methods_within_problem():
    rows = emit_summary([result("lex_eps_e_mad", 0.078), result("tourn", 0.113)])
    by_method = {r.method: r.rank for r in rows}
    assert by_method == {"lex_eps_e_mad": 1.0, "tourn": 2.0}


def test_emit_summary_tied_medians_share_rank():
    rows = emit_summary([result("lex", 0.5), result("rand", 0.5), result("tourn", 0.9)])
    ranks = {r.method: r.rank for r in rows}
    assert ranks["lex"] == ranks["rand"] == 1.5
    assert ranks["tourn"] == 3.0


def test_run_experiment_writes_expected_files(tmp_path):
    config = tiny_config(tmp_path)
    run_experiment(config)
    out = tmp_path / "out"
    files = sorted(p.name for p in out.iterdir())
    assert files == ["lex_trial000.csv", "lex_trial001.csv", "summary.csv"]
    rows = read_rows(out / "lex_trial000.csv")
    assert rows[0] == GEN_HEADER
    assert len(rows) == 1 + config.generations


def test_generation_logs_are_loadable_as_datasets(tmp_path):
    run_experiment(tiny_config(tmp_path))
    ds = load_csv(tmp_path / "out" / "lex_trial001.csv")
    assert ds.n_rows == 2 and ds.n_features == len(GEN_HEADER) - 1


def test_rerun_reproduces_everything_but_wall_clock(tmp_path):
    run_experiment(tiny_config(tmp_path / "a"))
    run_experiment(tiny_config(tmp_path / "b"))
    for name in ["lex_trial000.csv", "lex_trial001.csv"]:
        rows_a = read_rows(tmp_path / "a" / "out" / name)
        rows_b = read_rows(tmp_path / "b" / "out" / name)
        # every column except the trailing elapsed_s must match bit for bit
        assert [r[:-1] for r in rows_a] == [r[:-1] for r in rows_b]
    summary_a = read_rows(tmp_path / "a" / "out" / "summary.csv")
    summary_b = read_rows(tmp_path / "b" / "out" / "summary.csv")
    assert [r[:-1] for r in summary_a] == [r[:-1] for r in summary_b]


def test_run_experiment_with_csv_problem_and_parallel_jobs(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(40, 2))
    ds = Dataset(X, X[:, 0] * X[:, 1])
    path = tmp_path / "toy.csv"
    save_csv(ds, path)
    config = tiny_config(tmp_path, data=str(path), methods=[Method.RANDOM], jobs=2)
    summary = run_experiment(config)
    assert summary[0].problem == "toy"
    assert (tmp_path / "out" / "rand_trial000.csv").exists()


def test_default_jobs_counts_usable_cores_not_host_cores(tmp_path, monkeypatch):
    # one usable core on a many-core host: the default must not start a pool
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a one-core run started a process pool")

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setattr("lexgp.cli.ProcessPoolExecutor", NoPool)
    summary = run_experiment(tiny_config(tmp_path, jobs=None))
    assert summary[0].method == "lex"
    assert (tmp_path / "out" / "lex_trial001.csv").exists()


def test_trial_pool_asks_for_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # fork starts every worker at the first submit, so --jobs 64 with two
    # trials must ask for two workers, not 64
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("lexgp.cli.ProcessPoolExecutor", SerialPool)
    run_experiment(tiny_config(tmp_path, jobs=64))
    assert asked == [2]
    assert (tmp_path / "out" / "lex_trial001.csv").exists()


def test_parse_config_flags_override_file(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "methods = lex, tourn\n"
        "pop = 30      # engine size\n"
        "gens = 4\n"
        "seed = 3\n",
        encoding="utf-8")
    config = parse_config(["--config", str(cfg_file), "--pop", "12", "--trials", "2"])
    assert config.methods == [Method.LEX, Method.TOURNAMENT]
    assert config.population == 12       # flag wins
    assert config.generations == 4       # file survives
    assert config.trials == 2
    assert config.seed == 3


def test_parse_config_defaults_follow_benchmark_settings():
    config = parse_config([])
    assert config.population == 1000
    assert config.generations == 1000
    assert config.trials == 30
    assert config.eps_e == 5.0
    assert config.eps_y == 0.10
    assert config.split == 0.7


def test_parse_config_file_takes_long_keys_and_flags_override_them(tmp_path):
    cfg_file = tmp_path / "long.cfg"
    cfg_file.write_text("population = 30\ngenerations = 4\neps_e = 2.5\neps-y = 0.5\n",
                        encoding="utf-8")
    config = parse_config(["--config", str(cfg_file)])
    assert (config.population, config.generations) == (30, 4)
    assert (config.eps_e, config.eps_y) == (2.5, 0.5)
    config = parse_config(["--config", str(cfg_file), "--gens", "6", "--eps-e", "1.5",
                           "--population", "12", "--eps-y", "0.25"])
    assert (config.population, config.generations) == (12, 6)
    assert (config.eps_e, config.eps_y) == (1.5, 0.25)


@pytest.mark.parametrize("text, names", [
    ("pop = abc\n", [": argument --pop", "'abc'"]),
    ("config = other.cfg\n", [": a config file cannot name another"]),
    ("tri = 1\n", [": unrecognized arguments: --tri=1"]),
    ("# comment\npop = 8\ntrials 1\n", [":3: expected key=value, got 'trials 1'"]),
], ids=["non_integer_population", "nested_config", "abbreviated_key", "line_without_equals"])
def test_config_file_errors_name_the_file_before_any_output(text, names, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    code = main(["--config", str(cfg), "--pop", "8", "--gens", "1", "--trials", "1",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}") and err.count("\n") == 1
    for name in names:
        assert name in err
    assert not out.exists()


def test_parser_lists_only_given_settings():
    assert vars(build_parser().parse_args([])) == {}
    assert vars(build_parser().parse_args(["--methods", "lex, tourn,", "--pop", "5"])) == {
        "methods": ["lex", "tourn"], "population": 5}


def test_experiment_config_rejects_target_without_data():
    with pytest.raises(ValueError, match="--target applies only to --data"):
        ExperimentConfig(target="y")


def run_module(*args):
    env = dict(os.environ)
    src = str(Path(lexgp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "lexgp", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_help_lists_every_flag():
    done = run_module("--help")
    assert done.returncode == 0
    for flag in ["--config", "--problem", "--data", "--target", "--methods", "--trials",
                 "--seed", "--pop", "--population", "--gens", "--generations", "--eps-e",
                 "--eps-y", "--split", "--out", "--jobs"]:
        assert flag in done.stdout


def test_module_entry_point_rejects_abbreviated_flag(tmp_path):
    # a small run, so that a regression fails fast on the exit code
    done = run_module("--pop", "8", "--gens", "1", "--tri", "1", "--out", str(tmp_path / "o"))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_main_rejects_unknown_method(capsys):
    code = main(["--methods", "not_a_method", "--trials", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_main_rejects_unknown_problem(capsys):
    code = main(["--problem", "tower", "--trials", "1"])
    assert code == 2
    assert "unknown problem" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    ["--config", "{cfg}"],
    ["--pop", "0"],
    ["--gens", "-1"],
    ["--pop", "1", "--methods", "tourn"],
    ["--jobs", "-1"],
    ["--jobs", "0"],
    ["--split", "0.5"],
    ["--target", "y"],
    ["--problem", "uball5d", "--data", "{cfg}"],
    ["--seed", "-1"],
    ["--methods", "lex_eps_e", "--eps-e", "nan"],
    ["--methods", "lex_eps_y", "--eps-y", "nan"],
    ["--methods", "lex_eps_e", "--eps-e", "inf"],
    ["--methods", "lex_eps_y", "--eps-y", "inf"],
    ["--pop", "abc"],
    ["--no-such-flag", "1"],
    ["--tri", "1"],
], ids=["unknown_config_key", "zero_population", "negative_generations",
        "tournament_above_population", "negative_jobs", "zero_jobs",
        "split_without_data", "target_without_data", "problem_with_data",
        "negative_seed", "nan_eps_e", "nan_eps_y", "inf_eps_e", "inf_eps_y",
        "non_integer_population", "unknown_flag", "abbreviated_flag"])
def test_main_rejects_bad_settings_before_any_output(bad, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    out = tmp_path / "o"
    # A small run comes first, so a rejection that regresses fails fast on
    # the exit code; argparse lets each case's later flags win, so
    # zero_population still asks for --pop 0.
    code = main(["--pop", "8", "--gens", "1"] + [arg.format(cfg=cfg) for arg in bad]
                + ["--trials", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_main_rejects_missing_data_file(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["--data", str(tmp_path / "absent.csv"), "--trials", "1",
                 "--pop", "8", "--gens", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "absent.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_main_rejects_unreadable_data_before_any_output(kind, tmp_path, capsys):
    data = tmp_path / "data.csv"
    if kind == "directory":
        data.mkdir()
    else:
        data.write_bytes(b"x0,y\n1,\xff\n")
    out = tmp_path / "o"
    code = main(["--data", str(data), "--trials", "1",
                 "--pop", "8", "--gens", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(data) in err
    assert not out.exists()


def test_main_rejects_duplicate_columns_before_any_output(tmp_path, capsys):
    data = tmp_path / "dup.csv"
    data.write_text("x0,y,y\n1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
    out = tmp_path / "o"
    code = main(["--data", str(data), "--target", "y", "--trials", "1",
                 "--pop", "8", "--gens", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "duplicate column name 'y'" in err
    assert not out.exists()


def test_main_runs_on_data_with_whitespace_only_lines(tmp_path, capsys):
    data = tmp_path / "spaces.csv"
    rows = "".join(f"{x},{2 * x + 1}\n" for x in range(20))
    data.write_text(f"x0,y\n{rows}   \n\t\n", encoding="utf-8")
    code = main(["--data", str(data), "--methods", "rand", "--trials", "1", "--pop", "8",
                 "--gens", "1", "--seed", "2", "--out", str(tmp_path / "o"), "--jobs", "1"])
    assert code == 0
    assert "error:" not in capsys.readouterr().err
    assert (tmp_path / "o" / "summary.csv").exists()


def test_main_happy_path(tmp_path, capsys):
    code = main(["--methods", "rand", "--trials", "1", "--pop", "8", "--gens", "1",
                 "--seed", "2", "--out", str(tmp_path / "o"), "--jobs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "median_test_mae" in out
    assert (tmp_path / "o" / "summary.csv").exists()
