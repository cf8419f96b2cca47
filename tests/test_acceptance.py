"""End-to-end acceptance checks: exact statistics, selection-oracle
equivalence, behavioral invariants, survival correctness, the data pipeline,
and a desk-scale benchmark that must reproduce the expected method ordering.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per check.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lexgp.afp import environmental_select
from lexgp.data import (Dataset, generate_uball5d, load_csv, save_csv,
                        split_normalize, uball5d)
from lexgp.engine import EngineConfig, run_trial
from lexgp.expr import OperatorSet, hill_climb_constants, predict, random_program
from lexgp.selection import (EPSILON_METHODS, Method, SelectionConfig,
                             build_error_matrix, build_pass_matrix,
                             exact_selection_probabilities, lexicase_select, mad)

BENCH_SEED = 1234
BENCH_POP = 200
BENCH_GENS = 100
BENCH_TRIALS = 10
TIMING_TRIALS = 3

LEXICASE_METHODS = [Method.LEX, Method.LEX_EPS_E, Method.LEX_EPS_Y,
                    Method.LEX_EPS_E_MAD, Method.LEX_EPS_Y_MAD]


def check(label, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def errors_matrix(errors):
    errors = np.asarray(errors, dtype=float)
    return build_error_matrix(errors, np.zeros(errors.shape[1]))


# ----------------------------------------------------------------- 01: MAD

def test_01_mad_exactness():
    start = time.perf_counter()
    ok = (mad((1, 2, 3, 4, 5)) == 1.0
          and mad((0, 0, 0, 10)) == 0.0
          and mad(np.full(9, 3.7)) == 0.0)
    check("01 median-absolute-deviation exact values", ok,
          f"{time.perf_counter() - start:.2f}s")


# ------------------------------------------ 02: oracle equivalence

def test_02_selection_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    draws = 100_000
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(2, 6))
        n_cases = int(rng.integers(2, 6))
        if case % 2 == 0:
            errors = rng.integers(0, 3, size=(n, n_cases)).astype(float) / 2.0
        else:
            errors = rng.uniform(size=(n, n_cases))
        em = errors_matrix(errors)
        for method in LEXICASE_METHODS:
            config = SelectionConfig(method=method)
            exact = exact_selection_probabilities(em, config)
            passes = (build_pass_matrix(em, config)
                      if method in EPSILON_METHODS else None)
            orders = rng.permuted(np.tile(np.arange(n_cases), (draws, 1)), axis=1)
            counts = np.zeros(n)
            for row in orders:
                counts[lexicase_select(em, passes, row, rng).index] += 1
            worst = max(worst, float(np.abs(counts / draws - exact).max()))
    elapsed = time.perf_counter() - start
    check("02 empirical lexicase frequencies match exact enumeration (+-0.01)",
          worst < 0.01 and elapsed < 60.0,
          f"max deviation {worst:.4f}, {elapsed:.1f}s")


# ------------------------------------------ 03: single-case resolution

def test_03_standard_lexicase_single_case_resolution():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    em = errors_matrix(rng.uniform(size=(100, 50)))
    orders = rng.permuted(np.tile(np.arange(50), (10_000, 1)), axis=1)
    resolved = sum(lexicase_select(em, None, row, rng).cases_examined == 1
                   for row in orders)
    elapsed = time.perf_counter() - start
    check("03 continuous errors resolve standard lexicase after exactly 1 case",
          resolved == 10_000 and elapsed < 10.0,
          f"{resolved}/10000, {elapsed:.1f}s")


# ------------------------------------------ 04: nondominance

def test_04_lexicase_winners_are_nondominated():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        n_cases = int(rng.integers(2, 7))
        errors = rng.integers(0, 3, size=(n, n_cases)).astype(float)
        em = errors_matrix(errors)
        w = lexicase_select(em, None, rng.permutation(n_cases), rng).index
        for j in range(n):
            if j != w and (errors[j] <= errors[w]).all() and (errors[j] < errors[w]).any():
                violations += 1
                break
    elapsed = time.perf_counter() - start
    check("04 standard lexicase winners pass brute-force nondominance",
          violations == 0 and elapsed < 30.0,
          f"{violations} violations in 1000 matrices, {elapsed:.1f}s")


# ------------------------------------------ 05: degeneracy to uniform

def test_05_all_pass_threshold_degenerates_to_uniform():
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    n, n_cases, draws = 10, 8, 100_000
    em = errors_matrix(rng.uniform(size=(n, n_cases)))
    config = SelectionConfig(method=Method.LEX_EPS_Y, eps_y=1e9)
    passes = build_pass_matrix(em, config)
    assert passes.passes.all()
    orders = rng.permuted(np.tile(np.arange(n_cases), (draws, 1)), axis=1)
    counts = np.zeros(n)
    full_walks = 0
    for row in orders:
        ev = lexicase_select(em, passes, row, rng)
        counts[ev.index] += 1
        full_walks += ev.cases_examined == n_cases
    deviation = float(np.abs(counts / draws - 1.0 / n).max())
    elapsed = time.perf_counter() - start
    check("05 huge eps_y degenerates to uniform selection over all cases",
          deviation < 0.01 and full_walks == draws and elapsed < 30.0,
          f"max deviation {deviation:.4f}, full walks {full_walks}/{draws}, {elapsed:.1f}s")


# ------------------------------------------ 06-08: desk-scale benchmark

def _bench_task(args):
    method_value, trial = args
    method = Method(method_value)
    data = generate_uball5d(rng=np.random.default_rng(BENCH_SEED + trial))
    config = EngineConfig(population_size=BENCH_POP, generations=BENCH_GENS,
                          selection=SelectionConfig(method=method))
    log = run_trial(config, data, np.random.default_rng(BENCH_SEED + trial))
    mean_diversity_to_50 = float(np.mean([r.diversity for r in log.records[:51]]))
    return (method_value, trial, log.test_mae, mean_diversity_to_50, log.total_s)


@pytest.fixture(scope="module")
def bench():
    """Paired desk-scale runs: per trial, every method sees the same data and
    the same starting seed."""
    tasks = [(m.value, t)
             for m in (Method.LEX, Method.TOURNAMENT, Method.LEX_EPS_E_MAD)
             for t in range(BENCH_TRIALS)]
    tasks += [(m.value, t)
              for m in (Method.LEX_EPS_E, Method.LEX_EPS_Y, Method.LEX_EPS_Y_MAD)
              for t in range(TIMING_TRIALS)]
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as pool:
        rows = list(pool.map(_bench_task, tasks))
    wall = time.perf_counter() - start
    results = {}
    for method_value, trial, test_mae, mean_div, total_s in rows:
        results.setdefault(method_value, {})[trial] = {
            "test_mae": test_mae, "mean_div": mean_div, "total_s": total_s}
    results["_wall"] = wall
    return results


def test_06_benchmark_method_ordering(bench):
    trials = range(BENCH_TRIALS)
    eps = [bench["lex_eps_e_mad"][t]["test_mae"] for t in trials]
    tourn = [bench["tourn"][t]["test_mae"] for t in trials]
    lex = [bench["lex"][t]["test_mae"] for t in trials]
    eps_beats_tourn = sum(e < t for e, t in zip(eps, tourn))
    tourn_beats_lex = sum(t < l for t, l in zip(tourn, lex))
    detail = (f"eps_e_mad<tourn {eps_beats_tourn}/10, tourn<lex {tourn_beats_lex}/10; "
              f"medians {np.median(eps):.3f} / {np.median(tourn):.3f} / {np.median(lex):.3f}; "
              f"matrix wall {bench['_wall']:.0f}s")
    check("06 benchmark ordering eps_e_mad < tourn < lex on paired trials",
          eps_beats_tourn >= 7 and tourn_beats_lex >= 7 and bench["_wall"] < 900.0,
          detail)


def test_07_lexicase_diversity_exceeds_tournament(bench):
    wins = sum(bench["lex_eps_e_mad"][t]["mean_div"] > bench["tourn"][t]["mean_div"]
               for t in range(BENCH_TRIALS))
    means = (np.mean([bench['lex_eps_e_mad'][t]['mean_div'] for t in range(BENCH_TRIALS)]),
             np.mean([bench['tourn'][t]['mean_div'] for t in range(BENCH_TRIALS)]))
    check("07 mean output diversity through gen 50: eps_e_mad above tourn",
          wins >= 8,
          f"{wins}/10 paired wins; means {means[0]:.4f} vs {means[1]:.4f}")


def test_08_epsilon_variants_near_tournament_wall_time(bench):
    tourn_median = np.median([bench["tourn"][t]["total_s"] for t in range(BENCH_TRIALS)])
    ratios = {}
    for method in ("lex_eps_e", "lex_eps_y", "lex_eps_e_mad", "lex_eps_y_mad"):
        times = [entry["total_s"] for entry in bench[method].values()]
        ratios[method] = float(np.median(times) / tourn_median)
    check("08 every epsilon variant within 3x tournament wall time",
          all(r <= 3.0 for r in ratios.values()),
          ", ".join(f"{m}={r:.2f}x" for m, r in ratios.items()))


# ------------------------------------------ 09: engine invariants

def test_09_engine_invariants():
    start = time.perf_counter()
    split = generate_uball5d(60, 30, np.random.default_rng(23))

    deterministic = True
    monotone = True
    sized = True
    for method in Method:
        config = EngineConfig(population_size=14, generations=6,
                              selection=SelectionConfig(method=method))
        a = run_trial(config, split, np.random.default_rng(29))
        b = run_trial(config, split, np.random.default_rng(29))
        deterministic &= a.without_timing() == b.without_timing()
        bests = [r.best_train_mae for r in a.records]
        monotone &= all(y <= x + 1e-12 for x, y in zip(bests, bests[1:]))
        monotone &= a.best_train_mae <= bests[-1] + 1e-12
        sized &= len(a.records) == 6  # run_trial raises if |P| ever drifts

    rng = np.random.default_rng(31)
    ops = OperatorSet(5)
    climber_safe = True
    X, y = split.train.X, split.train.y
    for _ in range(150):
        p = random_program((3, 40), ops, rng)
        before = float(np.mean(np.abs(predict(p, X) - y)))
        q = hill_climb_constants(p, X, y, 0.1, rng)
        after = float(np.mean(np.abs(predict(q, X) - y)))
        climber_safe &= after <= before + 1e-12

    elapsed = time.perf_counter() - start
    check("09 engine invariants: determinism, elitism monotonicity, "
          "constant population, hill-climber never worsens",
          deterministic and monotone and sized and climber_safe,
          f"{elapsed:.1f}s")


# ------------------------------------------ 10: survival correctness

def test_10_environmental_selection_against_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(37)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        capacity = int(rng.integers(1, n + 1))
        points = list(zip(rng.integers(0, 10, n).tolist(),
                          rng.uniform(size=n).round(3).tolist()))
        chosen = environmental_select(np.asarray(points, dtype=float), capacity)
        ok &= len(chosen) == capacity
        # q dominates p when it is no worse in both objectives and not equal
        nondominated = {i for i, p in enumerate(points)
                        if not any(q[0] <= p[0] and q[1] <= p[1] and q != p for q in points)}
        chosen_ids = set(chosen)
        kept = [i in chosen_ids for i in range(n)]
        if any(kept[i] for i in range(n) if i not in nondominated):
            ok &= all(kept[i] for i in nondominated)
    elapsed = time.perf_counter() - start
    check("10 survival: exact capacity, nondominated never displaced by dominated",
          ok and elapsed < 30.0, f"1000 pools, {elapsed:.1f}s")


# ------------------------------------------ 11: data pipeline

def test_11_data_pipeline(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    ds = Dataset(rng.normal(size=(25, 3)) * 13.7, rng.normal(size=25))
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path)
    round_trip = (back.X == ds.X).all() and (back.y == ds.y).all()

    split = split_normalize(Dataset(rng.normal(2.0, 9.0, size=(40, 4)),
                                    rng.normal(size=40)), 0.7, rng)
    standardized = (np.abs(split.train.X.mean(axis=0)).max() < 1e-9
                    and np.abs(split.train.X.var(axis=0) - 1.0).max() < 1e-9)

    formula = uball5d(np.array([3.0, 3.0, 3.0, 3.0, 3.0])) == 2.0
    elapsed = time.perf_counter() - start
    check("11 data pipeline: CSV round trip, train standardization, benchmark formula",
          round_trip and standardized and formula, f"{elapsed:.2f}s")
