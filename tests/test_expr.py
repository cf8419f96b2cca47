import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgp.expr import (DEFAULT_OPERATORS, OperatorSet, Program,
                        hill_climb_constants, point_mutation, predict,
                        random_program, subtree_crossover, subtree_span)

ADD, SUB, MUL, DIV, SIN, COS, EXP, LOG = DEFAULT_OPERATORS


def evaluate(program, row):
    """A program's output on a single feature row: predict on a one-row matrix."""
    return float(predict(program, np.asarray(row, dtype=float)[None, :])[0])


def test_evaluate_basic_arithmetic():
    assert evaluate(Program([ADD, 0, 1.0]), [2.0]) == 3.0
    assert evaluate(Program([MUL, 0, 0]), [-2.0]) == 4.0
    assert evaluate(Program([SUB, 0, 1]), [5.0, 3.0]) == 2.0


def test_protected_division_near_zero_denominator():
    assert evaluate(Program([DIV, 0, 1]), [1.0, 0.0]) == 1.0
    assert evaluate(Program([DIV, 0, 1]), [7.0, 1e-9]) == 1.0
    assert evaluate(Program([DIV, 0, 1]), [6.0, 2.0]) == 3.0


def test_protected_log_and_exp():
    assert evaluate(Program([LOG, 0]), [0.0]) == 0.0
    assert evaluate(Program([LOG, 0]), [-np.e]) == pytest.approx(1.0)
    # argument clamp keeps exp finite
    assert evaluate(Program([EXP, 0]), [1e6]) == pytest.approx(np.exp(32.0))
    assert evaluate(Program([EXP, 0]), [-1e6]) == pytest.approx(np.exp(-32.0))


def test_predict_matches_rowwise_evaluate():
    rng = np.random.default_rng(3)
    ops = OperatorSet(4)
    X = rng.normal(size=(8, 4))
    for _ in range(25):
        p = random_program((3, 30), ops, rng)
        out = predict(p, X)
        assert out.shape == (8,)
        for t in range(8):
            assert out[t] == pytest.approx(evaluate(p, X[t]), abs=1e-12)


def test_predict_constant_and_identity_programs():
    X = np.array([[1.0], [2.0]])
    np.testing.assert_allclose(predict(Program([0.5]), np.zeros((3, 1))), [0.5] * 3)
    np.testing.assert_allclose(predict(Program([0]), X), [1.0, 2.0])
    sq = Program([MUL, 0, 0])
    np.testing.assert_allclose(predict(sq, np.array([[0.0], [-2.0], [3.0]])), [0.0, 4.0, 9.0])


def test_evaluation_is_total_on_adversarial_inputs():
    rng = np.random.default_rng(11)
    ops = OperatorSet(3)
    rows = np.array([
        [0.0, 0.0, 0.0],
        [1e300, -1e300, 1e-300],
        [1e8, 1e8, -1e8],
        [-1.0, 1e-7, 3.0],
    ])
    for _ in range(300):
        p = random_program((3, 50), ops, rng)
        assert np.isfinite(predict(p, rows)).all()


EXTREMES = [0.0, 1e-7, -1e-7, 1.0, -1.0, 1e200, -1e200, 1.7976931348623157e308,
            -1.7976931348623157e308, 5e-324, -5e-324, 2.2250738585072014e-308]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.lists(st.sampled_from(EXTREMES), min_size=3, max_size=3),
                min_size=1, max_size=6))
def test_predict_is_finite_on_extreme_inputs(seed, rows):
    # random programs over rows mixing 0, +-1e-7, +-1e200 and the finite
    # extremes of float64: overflow, inf - inf and 0 * inf never escape
    rng = np.random.default_rng(seed)
    X = np.array(rows)
    for _ in range(5):
        out = predict(random_program((3, 50), OperatorSet(3), rng), X)
        assert out.shape == (len(rows),) and np.isfinite(out).all()


def test_program_is_immutable():
    p = Program([ADD, 0, 1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.age = 1


def test_random_program_respects_size_limits():
    rng = np.random.default_rng(0)
    ops = OperatorSet(2)
    sizes = set()
    for _ in range(10000):
        p = random_program((3, 50), ops, rng)
        sizes.add(len(p.nodes))
        for i in p.constants():
            assert -1.0 <= p.nodes[i] <= 1.0
    assert min(sizes) >= 3 and max(sizes) <= 50
    assert len(sizes) > 10  # ramped generation actually varies shape


def test_random_program_tight_limit_forces_binary_root():
    rng = np.random.default_rng(1)
    ops = OperatorSet(2)
    for _ in range(200):
        p = random_program((3, 3), ops, rng)
        assert len(p.nodes) == 3
        assert p.nodes[0].arity == 2
        assert not isinstance(p.nodes[1], type(p.nodes[0]))
        assert p.age == 0


def test_random_program_is_seed_deterministic():
    ops = OperatorSet(3)
    a = random_program((3, 50), ops, np.random.default_rng(42))
    b = random_program((3, 50), ops, np.random.default_rng(42))
    assert a == b


def test_subtree_span():
    #  (x0 + sin(x1)) has spans: whole tree, terminal, sin-subtree
    nodes = [ADD, 0, SIN, 1]
    assert subtree_span(nodes, 0) == 4
    assert subtree_span(nodes, 1) == 2
    assert subtree_span(nodes, 2) == 4


def test_crossover_with_itself_at_matching_points_reproduces_parent():
    ops = OperatorSet(2)
    parent = Program([ADD, 0, 1], age=4)
    # Both picks landing on the same index splice the tree onto itself.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        child = subtree_crossover(parent, parent, (3, 50), rng)
        if child.nodes == parent.nodes:
            break
    else:
        pytest.fail("no seed reproduced the parent")


def test_crossover_age_is_max_of_parents():
    rng = np.random.default_rng(5)
    ops = OperatorSet(2)
    p1 = dataclasses.replace(random_program((3, 20), ops, rng), age=4)
    p2 = dataclasses.replace(random_program((3, 20), ops, rng), age=7)
    assert subtree_crossover(p1, p2, (3, 50), rng).age == 7


def test_crossover_never_violates_size_limits():
    rng = np.random.default_rng(6)
    ops = OperatorSet(3)
    pool = [random_program((3, 50), ops, rng) for _ in range(40)]
    for _ in range(10000):
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        child = subtree_crossover(a, b, (3, 50), rng)
        assert 3 <= len(child.nodes) <= 50


def test_point_mutation_preserves_size_and_age():
    rng = np.random.default_rng(7)
    ops = OperatorSet(3)
    for _ in range(500):
        p = dataclasses.replace(random_program((3, 40), ops, rng), age=2)
        child = point_mutation(p, ops, rng)
        assert len(child.nodes) == len(p.nodes)
        assert child.age == 2
        # arity profile unchanged
        for old, new in zip(p.nodes, child.nodes):
            old_arity = old.arity if hasattr(old, "arity") else 0
            new_arity = new.arity if hasattr(new, "arity") else 0
            assert old_arity == new_arity


def test_point_mutation_on_constant_keeps_structure():
    rng = np.random.default_rng(8)
    ops = OperatorSet(1)
    p = Program([ADD, 0.25, 0])
    child = point_mutation(p, ops, rng)
    assert len(child.nodes) == 3


def test_point_mutation_is_seed_deterministic():
    ops = OperatorSet(2)
    p = random_program((3, 30), ops, np.random.default_rng(9))
    a = point_mutation(p, ops, np.random.default_rng(10))
    b = point_mutation(p, ops, np.random.default_rng(10))
    assert a == b


def test_hill_climb_no_constants_returns_program_unchanged():
    rng = np.random.default_rng(12)
    p = Program([ADD, 0, 1])
    X = rng.normal(size=(10, 2))
    y = X.sum(axis=1)
    assert hill_climb_constants(p, X, y, 0.1, rng) is p


def test_hill_climb_never_worsens_mae():
    rng = np.random.default_rng(13)
    ops = OperatorSet(2)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    for _ in range(200):
        p = random_program((3, 30), ops, rng)
        before = np.mean(np.abs(predict(p, X) - y))
        q = hill_climb_constants(p, X, y, 0.1, rng)
        after = np.mean(np.abs(predict(q, X) - y))
        assert after <= before + 1e-12
        assert len(q.nodes) == len(p.nodes)


def test_hill_climb_fits_linear_coefficient():
    # y = 2*x0 fitted by c*x0: the error mean |2 - c| * mean|x| is convex
    # in c with its minimum at c = 2, checked by a sweep before trusting
    # the climber to walk there.
    rng = np.random.default_rng(14)
    X = rng.uniform(0.5, 2.0, size=(40, 1))
    y = 2.0 * X[:, 0]
    mean_abs_x = np.mean(np.abs(X[:, 0]))

    def sweep_mae(c):
        return float(np.mean(np.abs(c * X[:, 0] - y)))

    grid = np.linspace(1.0, 3.0, 81)
    sweep = [sweep_mae(c) for c in grid]
    np.testing.assert_allclose(sweep, np.abs(2.0 - grid) * mean_abs_x, atol=1e-12)
    assert grid[int(np.argmin(sweep))] == pytest.approx(2.0)

    p = Program([MUL, 1.9, 0])
    history = [float(np.mean(np.abs(predict(p, X) - y)))]
    for _ in range(300):
        p = hill_climb_constants(p, X, y, 0.1, rng)
        history.append(float(np.mean(np.abs(predict(p, X) - y))))
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    assert history[-1] < 0.05 * history[0]
    assert p.nodes[0] is MUL and p.nodes[2] == 0  # structure untouched


def test_program_str_renders_infix():
    p = Program([ADD, 0, SIN, 1.5])
    assert str(p) == "(x0 + sin(1.5))"
