import hashlib
import tracemalloc

import numpy as np
import pytest

from lexgp import afp, engine, expr
from lexgp.data import generate_uball5d
from lexgp.engine import (EngineConfig, case_orders, diversity, mae, run_trial,
                          variation_slots)
from lexgp.expr import Operator
from lexgp.selection import Method, SelectionConfig, build_error_matrix

ALL_METHODS = list(Method)

# RunLog.without_timing() digests at population 14, 6 generations, seed 29
# on check 09's data (see log_digest). Any change to the RNG stream or to
# what the engine computes moves them.
GOLDEN_DIGESTS = {
    "lex": "caee6e5800c8ce17e13646a4bc29366d8c1e09882dfafac93351a7c1c6b53964",
    "lex_eps_e": "7eb5b8789fefb239ca34eecbf4cc765d5c8865c087736f285101f6c4a286c51e",
    "lex_eps_y": "ae7183edfddd4a2a1e4accfe19aba52437ba5b276181eea373c1889c14c443be",
    "lex_eps_e_mad": "c19465309ac73fe6a56682b7adb5605e8abc584f78de5f9c2156c4bc0d6210e5",
    "lex_eps_y_mad": "4f7623381a362b96ec4d8ab5ab6f3e4701b27248409a7c323a48b4bf9dce2f9e",
    "tourn": "6ef0aec61bc58c97e7e005f31fa4b161e26f7d2214a51556566c4debe59647ea",
    "rand": "142f1cc114cee3e9375666a890593cbbbf50ac15c99563e105f38ae5d6610eca",
    "afp": "8796cc5193ecb6e852d015e5607d981dbf5056d8608e6259535d8b161feadfbb",
}
GOLDEN_POP, GOLDEN_GENS = 14, 6


@pytest.fixture(scope="module")
def small_split():
    return generate_uball5d(48, 24, np.random.default_rng(1000))


@pytest.fixture(scope="module")
def wide_split():
    return generate_uball5d(2048, 64, np.random.default_rng(7))


@pytest.fixture(scope="module")
def golden_split():
    return generate_uball5d(60, 30, np.random.default_rng(23))


def golden_trial(method, split):
    config = EngineConfig(population_size=GOLDEN_POP, generations=GOLDEN_GENS,
                          selection=SelectionConfig(method=method))
    return run_trial(config, split, np.random.default_rng(29))


def log_digest(log):
    """SHA-256 over every non-timing field of a RunLog, floats as hex."""
    def token(node):
        if isinstance(node, Operator):
            return node.name
        return node.hex() if isinstance(node, float) else node

    plain = log.without_timing()
    payload = repr(([(r.generation, r.best_train_mae.hex(), r.diversity.hex(),
                      r.median_cases_used.hex()) for r in plain.records],
                    [token(n) for n in plain.best_program.nodes],
                    plain.best_program.age, plain.best_train_mae.hex(),
                    plain.test_mae.hex()))
    return hashlib.sha256(payload.encode()).hexdigest()


def small_config(method, **overrides):
    base = dict(population_size=16, generations=4,
                selection=SelectionConfig(method=method))
    base.update(overrides)
    return EngineConfig(**base)


def test_mae_values():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([1.0, 2.0], [0.0, 0.0]) == 1.5
    assert mae([-1.0], [1.0]) == 2.0
    with pytest.raises(ValueError):
        mae([1.0], [1.0, 2.0])


@pytest.mark.parametrize("n_orders, n_cases", [(1, 7), (300, 7), (129, 300), (257, 1024),
                                              (3, 40000)])
def test_case_orders_draw_as_one_permuted_table(n_orders, n_cases):
    rng_a, rng_b = np.random.default_rng(n_cases), np.random.default_rng(n_cases)
    orders = case_orders(n_orders, n_cases, rng_a)
    table = rng_b.permuted(np.tile(np.arange(n_cases), (n_orders, 1)), axis=1)
    assert orders.dtype == np.min_scalar_type(n_cases)
    np.testing.assert_array_equal(orders, table)
    assert rng_a.random() == rng_b.random()


def test_matrix_mae_in_row_blocks_bit_equals_the_whole_matrix_formula():
    rng = np.random.default_rng(4)
    n_rows = 2 * expr.MAE_ROWS + 13  # three blocks, the last one short
    outputs = rng.normal(size=(n_rows, 301)) * 10.0 ** rng.integers(-3, 4, (n_rows, 1))
    targets = rng.normal(size=301)
    whole = np.abs(outputs - targets).mean(axis=1)
    assert mae(outputs, targets).tobytes() == whole.tobytes()
    assert [mae(row, targets) for row in outputs] == whole.tolist()


def test_diversity_counts_distinct_output_vectors():
    def of(outputs):
        return diversity(build_error_matrix(outputs, np.zeros(outputs.shape[1])).output_twins)

    assert of(np.zeros((4, 3))) == 0.25
    assert of(np.arange(12.0).reshape(4, 3)) == 1.0
    assert of(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        diversity([])


def test_variation_slots_are_exact():
    assert variation_slots(200, 0.8) == (160, 40)
    assert variation_slots(10, 0.8) == (8, 2)
    assert variation_slots(1000, 0.8) == (800, 200)
    for n in range(1, 40):
        cross, mut = variation_slots(n, 0.8)
        assert cross + mut == n


def test_zero_generations_reports_initial_best(small_split):
    cfg = small_config(Method.LEX, generations=0)
    log = run_trial(cfg, small_split, np.random.default_rng(0))
    assert log.records == []
    assert np.isfinite(log.best_train_mae) and np.isfinite(log.test_mae)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_run_trial_is_seed_deterministic(method, small_split):
    cfg = small_config(method)
    a = run_trial(cfg, small_split, np.random.default_rng(5))
    b = run_trial(cfg, small_split, np.random.default_rng(5))
    assert a.without_timing() == b.without_timing()


@pytest.mark.parametrize("method", ALL_METHODS)
def test_elitism_makes_best_mae_non_increasing(method, small_split):
    cfg = small_config(method, generations=8)
    log = run_trial(cfg, small_split, np.random.default_rng(6))
    bests = [r.best_train_mae for r in log.records]
    assert all(b <= a + 1e-12 for a, b in zip(bests, bests[1:]))
    assert log.best_train_mae <= bests[-1] + 1e-12


def test_population_size_constant_across_generations(small_split):
    # indirectly asserted through every generation's diversity denominator;
    # run with a method mix and check the records all exist
    for method in (Method.LEX_EPS_E_MAD, Method.AFP):
        cfg = small_config(method, generations=5)
        log = run_trial(cfg, small_split, np.random.default_rng(7))
        assert len(log.records) == 5
        assert all(0.0 < r.diversity <= 1.0 for r in log.records)


def test_first_generation_diagnostics_shared_across_methods(small_split):
    # the initial population depends only on the seed, so generation 0's
    # best error and diversity must agree across selection methods
    logs = [run_trial(small_config(m, generations=1), small_split,
                      np.random.default_rng(8)) for m in ALL_METHODS]
    first = logs[0].records[0]
    for log in logs[1:]:
        assert log.records[0].best_train_mae == first.best_train_mae
        assert log.records[0].diversity == first.diversity


def test_median_cases_used_by_method(small_split):
    n_train = small_split.train.n_rows
    expectations = {
        Method.LEX: lambda v: v == 1.0,
        Method.TOURNAMENT: lambda v: v == float(n_train),
        Method.RANDOM: lambda v: v == 0.0,
        Method.AFP: lambda v: v == 0.0,
        Method.LEX_EPS_E_MAD: lambda v: 1.0 <= v <= n_train,
    }
    for method, check in expectations.items():
        log = run_trial(small_config(method), small_split, np.random.default_rng(9))
        for record in log.records:
            assert check(record.median_cases_used), (method, record)


def test_ages_advance_only_under_afp(small_split):
    cfg = small_config(Method.AFP, generations=6)
    log = run_trial(cfg, small_split, np.random.default_rng(10))
    assert log.best_program.age > 0

    cfg = small_config(Method.TOURNAMENT, generations=6)
    log = run_trial(cfg, small_split, np.random.default_rng(10))
    assert log.best_program.age == 0


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(population_size=0)
    with pytest.raises(ValueError):
        EngineConfig(population_size=1, selection=SelectionConfig(method=Method.TOURNAMENT))


def test_runlog_without_timing_zeroes_clocks(small_split):
    log = run_trial(small_config(Method.RANDOM), small_split, np.random.default_rng(11))
    stripped = log.without_timing()
    assert stripped.total_s == 0.0
    assert all(r.elapsed_s == 0.0 for r in stripped.records)
    # non-timing payload is untouched
    assert [r.best_train_mae for r in stripped.records] == \
           [r.best_train_mae for r in log.records]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_run_trial_matches_golden_digest(method, golden_split):
    assert log_digest(golden_trial(method, golden_split)) == GOLDEN_DIGESTS[method.value]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_run_trial_evaluates_each_program_once(method, golden_split, monkeypatch):
    # The initial population and each generation's new programs are
    # evaluated once; the final predict scores the winner on the test split.
    # Hill climbing's own calls go through lexgp.expr.predict, not counted.
    calls = []
    real_predict = engine.predict
    monkeypatch.setattr(engine, "predict",
                        lambda p, X, memo=None: calls.append(1) or real_predict(p, X, memo))
    pools = []
    real_select = afp.environmental_select
    monkeypatch.setattr(afp, "environmental_select",
                        lambda c, capacity: pools.append(len(c)) or real_select(c, capacity))
    golden_trial(method, golden_split)
    P, G = GOLDEN_POP, GOLDEN_GENS
    if method is Method.AFP:
        assert len(calls) == P + G * (P + 1) + 1
        assert pools == [2 * P + 1] * G
    else:
        assert len(calls) == P + G * P + 1
        assert pools == []


@pytest.mark.parametrize("method", [Method.LEX_EPS_E_MAD, Method.AFP])
def test_run_trial_shares_one_memo_per_generation(method, golden_split, monkeypatch):
    # The initial population and each generation's children, hill-climb
    # candidates included, share one memo bound to the training matrix; no
    # memo outlives its generation, and the test split is scored without one.
    memos = []
    for module in (engine, expr):
        real = getattr(module, "predict")
        monkeypatch.setattr(module, "predict", lambda p, X, memo=None, real=real:
                            memos.append(memo) or real(p, X, memo))
    golden_trial(method, golden_split)
    assert memos[-1] is None
    runs = [memos[0]]
    for memo in memos[1:-1]:
        if memo is not runs[-1]:
            runs.append(memo)
    assert len(runs) == GOLDEN_GENS + 1
    assert len({id(memo) for memo in runs}) == len(runs)
    assert all(memo.X is golden_split.train.X for memo in runs)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_a_generation_holds_at_most_two_population_matrices(method, wide_split):
    # The parents' outputs and the error matrix, or the parents' and the
    # children's outputs, and never more than two such matrices at once.
    config = EngineConfig(population_size=200, generations=2,
                          selection=SelectionConfig(method=method))
    matrix = 200 * wide_split.train.n_rows * 8
    tracemalloc.start()
    try:
        run_trial(config, wide_split, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The memo's budget and 1 MB for the smaller extras: the case orders
    # (1.5 MB), a shuffle block or MAE block (1 MB), the pass matrix and
    # AFP's distance blocks.
    assert peak < 2 * matrix + expr.MEMO_BYTES + 1e6
