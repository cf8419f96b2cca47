import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgp import expr
from lexgp.expr import (DEFAULT_OPERATORS, GUARD, EvalMemo, OperatorSet, Program,
                        _div, _log, hill_climb_constants, point_mutation, predict,
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


def div_reference(a, b):
    """The protected division as first written: the bit-for-bit reference."""
    near_zero = np.abs(b) < GUARD
    safe = np.where(near_zero, 1.0, b)
    return np.where(near_zero, 1.0, np.divide(a, safe))


def log_reference(a):
    """The protected log as first written: the bit-for-bit reference."""
    mag = np.abs(a)
    small = mag < GUARD
    return np.where(small, 0.0, np.log(np.where(small, 1.0, mag)))


SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, GUARD, -GUARD, np.nextafter(GUARD, 0.0), 1.0,
            -3.0, 1e308, -1e308]


def test_div_and_log_match_their_reference_formulas():
    a, b = (v.ravel() for v in np.meshgrid(SPECIALS, SPECIALS))
    with np.errstate(all="ignore"):
        assert _div(a, b).tobytes() == div_reference(a, b).tobytes()
        assert _log(a).tobytes() == log_reference(a).tobytes()
        for x in SPECIALS:
            # 0-d operands (constant-only subtrees) and mixed scalar/array
            got, want = _log(x), log_reference(x)
            assert got.shape == want.shape == () and got.tobytes() == want.tobytes()
            assert _div(x, b).tobytes() == div_reference(x, b).tobytes()
            assert _div(a, x).tobytes() == div_reference(a, x).tobytes()
            for y in SPECIALS:
                got, want = _div(x, y), div_reference(x, y)
                assert got.shape == want.shape == () and got.tobytes() == want.tobytes()


def reference_evaluate(nodes, X):
    """A program's output with every node computed by a plain stack scan,
    then predict's finite mapping: the bit-for-bit reference for predict."""
    X = np.asarray(X, dtype=float)
    stack = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for node in reversed(nodes):
            if isinstance(node, expr.Operator):
                if node.arity == 1:
                    stack.append(node.fn(stack.pop()))
                else:
                    stack.append(node.fn(stack.pop(), stack.pop()))
            elif isinstance(node, int):
                stack.append(X[:, node])
            else:
                stack.append(node)
    out = stack.pop()
    if np.ndim(out) == 0:
        out = np.full(X.shape[0], float(out))
    else:
        out = np.asarray(out, dtype=float)
    if not np.isfinite(out).all():
        out = np.nan_to_num(out, nan=0.0, posinf=expr.VALUE_LIMIT, neginf=-expr.VALUE_LIMIT)
    return out


def memo_sequence(rng, ops):
    """Programs in the order a generation meets them: random programs,
    crossover children and mutants of earlier ones, and hill-climb
    candidates, next to look-alike leaves that a memo must keep apart."""
    programs = [
        Program([ADD, 0, 1]), Program([ADD, 0, 1.0]), Program([MUL, 1, 1.0]),
        Program([MUL, 1.0, 1]), Program([SIN, MUL, 1, 1]), Program([SIN, MUL, 1.0, 1]),
        Program([MUL, 0, 0.0]), Program([MUL, 0, -0.0]), Program([SUB, MUL, 0, -0.0, 2]),
        Program([SUB, MUL, 0, 0.0, 2]), Program([DIV, 1.0, MUL, 0.0, 0]),
    ]
    for _ in range(12):
        programs.append(random_program((3, 50), ops, rng))
        a = programs[int(rng.integers(len(programs)))]
        b = programs[int(rng.integers(len(programs)))]
        programs.append(subtree_crossover(a, b, (3, 50), rng))
        programs.append(point_mutation(programs[-1], ops, rng))
        # a hill-climb candidate: the same tree with every constant moved
        nodes = [n + float(rng.normal()) if isinstance(n, float) else n
                 for n in programs[-1].nodes]
        programs.append(Program(nodes))
    return programs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.lists(st.sampled_from(EXTREMES), min_size=3, max_size=3),
                min_size=1, max_size=6),
       st.sampled_from([0, 3, expr.MEMO_VECTORS]), st.sampled_from([60, expr.MEMO_IDS]))
def test_memo_predict_bit_equals_plain_predict(seed, rows, vectors, max_ids):
    # one memo across the whole sequence; small budgets force evictions
    # and clears of the id table; without a memo, predict makes a fresh one
    rng = np.random.default_rng(seed)
    X = np.array(rows)
    with mock.patch.multiple(expr, MEMO_VECTORS=vectors, MEMO_IDS=max_ids):
        memo = EvalMemo(X)
    for p in memo_sequence(rng, OperatorSet(3)):
        want = reference_evaluate(p.nodes, X).tobytes()
        assert predict(p, X, memo).tobytes() == want, str(p)
        assert predict(p, X).tobytes() == want, str(p)
        assert memo.nbytes <= memo.max_bytes and len(memo._ids) <= memo.max_ids


def test_hill_climb_with_a_memo_matches_the_plain_climb():
    rng = np.random.default_rng(15)
    ops = OperatorSet(2)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    memo = EvalMemo(X)
    for seed in range(100):
        p = random_program((3, 30), ops, rng)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert hill_climb_constants(p, X, y, 0.1, rng_a, memo) == \
            hill_climb_constants(p, X, y, 0.1, rng_b)
        assert rng_a.random() == rng_b.random()


def test_memo_bytes_stay_within_budget():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(64, 3))
    with mock.patch.object(expr, "MEMO_VECTORS", 5):
        memo = EvalMemo(X)
    most = 0
    for _ in range(300):
        predict(random_program((3, 50), OperatorSet(3), rng), X, memo)
        assert memo.nbytes == sum(v.nbytes for v in memo._values.values())
        most = max(most, memo.nbytes)
    assert most == memo.max_bytes == 5 * 64 * 8  # used, and never exceeded


def test_memo_clears_ids_and_values_together():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(16, 3))
    with mock.patch.object(expr, "MEMO_IDS", 80):
        memo = EvalMemo(X)
    for _ in range(300):
        predict(random_program((3, 50), OperatorSet(3), rng), X, memo)
        assert len(memo._ids) <= 80
        # every stored output belongs to an id of the current table
        assert all(key < len(memo._ids) for key in memo._values)
    memo.clear()
    assert (memo._ids, len(memo._values), memo.nbytes) == ({}, 0, 0)


def test_memo_arrays_are_read_only():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(8, 3))
    memo = EvalMemo(X)
    for _ in range(50):
        predict(random_program((3, 50), OperatorSet(3), rng), X, memo)
    assert memo._values
    for value in memo._values.values():
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0] = 0.0


def test_memo_is_bound_to_its_matrix():
    X = np.arange(6.0).reshape(3, 2)
    memo = EvalMemo(X)
    p = Program([SIN, ADD, 0, 1])
    predict(p, X, memo)
    with pytest.raises(ValueError, match="another feature matrix"):
        predict(p, X.copy(), memo)
    rows = X.tolist()
    listed = EvalMemo(rows)
    assert predict(p, rows, listed).tobytes() == predict(p, X).tobytes()


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


def reference_grow(depth, ops, rng, out, at_root=True):
    """The grow builder as first written."""
    if depth == 0:
        out.append(ops.random_terminal(rng))
        return
    if at_root or rng.random() < 0.5:
        op = DEFAULT_OPERATORS[int(rng.integers(len(DEFAULT_OPERATORS)))]
        out.append(op)
        for _ in range(op.arity):
            reference_grow(depth - 1, ops, rng, out, at_root=False)
    else:
        out.append(ops.random_terminal(rng))


def reference_full(depth, ops, rng, out):
    """The full builder as first written."""
    if depth == 0:
        out.append(ops.random_terminal(rng))
        return
    op = DEFAULT_OPERATORS[int(rng.integers(len(DEFAULT_OPERATORS)))]
    out.append(op)
    for _ in range(op.arity):
        reference_full(depth - 1, ops, rng, out)


def reference_random_program(limits, ops, rng):
    """Ramped half-and-half over the two builders: the reference for
    random_program's nodes and rng draws."""
    min_size, max_size = limits
    depths = expr._ramp_depths(max_size)
    for _ in range(1000):
        depth = depths[int(rng.integers(len(depths)))]
        nodes = []
        if rng.random() < 0.5:
            reference_full(depth, ops, rng, nodes)
        else:
            reference_grow(depth, ops, rng, nodes)
        if min_size <= len(nodes) <= max_size:
            return Program(nodes, age=0)
    raise ValueError(f"could not generate a program within size limits {limits}")


def typed_nodes(program):
    # 1 == 1.0, so a feature index and a constant are told apart by type
    return [(type(node), node) for node in program.nodes]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 1), (3, 3), (3, 7), (3, 50)]),
       st.integers(1, 4))
def test_random_program_draws_as_the_reference_builders(seed, limits, n_features):
    # (1, 1) fits no tree, (3, 3) forces a binary root over two terminals
    ops = OperatorSet(n_features, (-3.0, 3.0))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        try:
            want = reference_random_program(limits, ops, ref_rng)
        except ValueError:
            with pytest.raises(ValueError, match="within size limits"):
                random_program(limits, ops, rng)
        else:
            assert typed_nodes(random_program(limits, ops, rng)) == typed_nodes(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


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
