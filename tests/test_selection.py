import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgp import selection
from lexgp.engine import diversity
from lexgp.selection import (EPSILON_METHODS, ErrorMatrix, Method,
                             SelectionConfig, _pack_columns, build_error_matrix,
                             build_pass_matrix, exact_selection_probabilities,
                             lexicase_select, mad, random_select,
                             tournament_select, twin_masks)

ALL_LEXICASE = [Method.LEX, Method.LEX_EPS_E, Method.LEX_EPS_Y,
                Method.LEX_EPS_E_MAD, Method.LEX_EPS_Y_MAD]


def matrix_from_errors(errors) -> ErrorMatrix:
    errors = np.asarray(errors, dtype=float)
    # realize the errors as outputs against a zero target
    return build_error_matrix(errors, np.zeros(errors.shape[1]))


def empirical_frequencies(em, config, n_draws, seed):
    passes = None
    if config.method in EPSILON_METHODS:
        passes = build_pass_matrix(em, config)
    rng = np.random.default_rng(seed)
    orders = rng.permuted(np.tile(np.arange(em.n_cases), (n_draws, 1)), axis=1)
    counts = np.zeros(em.n_programs)
    for row in orders:
        counts[lexicase_select(em, passes, row, rng).index] += 1
    return counts / n_draws


# ---------------------------------------------------------------- statistics

def test_mad_values():
    assert mad([1, 2, 3, 4, 5]) == 1.0
    assert mad([0, 0, 0, 10]) == 0.0
    assert mad([1, 1, 1, 1]) == 0.0
    assert mad([7.5]) == 0.0


def test_mad_even_length_uses_middle_mean():
    # sorted deviations (0.5, 0.5, 1.5, 2.5) -> (0.5 + 1.5) / 2
    assert mad([1, 2, 3, 5]) == 1.0


def test_error_matrix_values():
    outputs = np.array([[1.0, 2.0]])
    em = build_error_matrix(outputs, np.array([0.0, 0.0]))
    assert em.errors.tolist() == [[1.0, 2.0]]
    assert em.aggregate.tolist() == [1.5]
    em = build_error_matrix(outputs, np.array([3.0, 0.5]))
    assert em.errors.tolist() == [[2.0, 1.5]]
    assert outputs.tolist() == [[1.0, 2.0]]  # the outputs are not overwritten

    em = build_error_matrix(np.array([[1.0, 3.0], [2.0, 0.0]]), np.zeros(2))
    assert em.case_elite.tolist() == [1.0, 0.0]

    perfect = build_error_matrix(np.array([[4.0, 5.0]]), np.array([4.0, 5.0]))
    assert perfect.aggregate.tolist() == [0.0]


def test_error_matrix_column_mad_matches_scalar_mad():
    rng = np.random.default_rng(0)
    errors = rng.uniform(size=(9, 6))
    em = matrix_from_errors(errors)
    for t in range(6):
        assert em.case_mad[t] == pytest.approx(mad(errors[:, t]))


def reference_mad(values, axis=None):
    """The MAD written with two ``np.median`` calls."""
    v = np.asarray(values, dtype=float)
    deviation = v - np.median(v, axis=axis, keepdims=True)
    np.abs(deviation, out=deviation)
    spread = np.median(deviation, axis=axis, overwrite_input=True)
    return float(spread) if axis is None else spread


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


MAD_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
                   2.5, 1.7976931348623157e308, -1.7976931348623157e308,
                   np.inf, -np.inf]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 7), st.integers(1, 7), st.booleans(), st.data())
def test_mad_bit_equals_the_np_median_formula(n_rows, n_cols, with_nan, data):
    # (P, 1), (1, N) and 1 x 1 shapes, odd and even lengths on both axes
    values = st.one_of(st.sampled_from(MAD_EDGE_VALUES + [np.nan] * with_nan),
                       st.floats(-4.0, 4.0))
    v = np.array(data.draw(st.lists(st.lists(values, min_size=n_cols, max_size=n_cols),
                                    min_size=n_rows, max_size=n_rows)))
    before = v.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        for axis in (None, 0, 1):
            assert (bits(mad(v, axis)) == bits(reference_mad(v, axis))).all(), axis
        em = matrix_from_errors(v)
        errors = em.errors.copy()
        assert (bits(em.case_mad) == bits(reference_mad(errors, axis=0))).all()
    assert (bits(em.errors) == bits(errors)).all()
    assert (bits(v) == bits(before)).all()


def test_error_matrix_guards_against_overflowing_aggregates():
    huge = np.full((2, 3), 1e308)
    em = build_error_matrix(huge, np.full(3, -1e308))
    assert np.isfinite(em.aggregate).all()
    assert np.isfinite(em.errors).all()


# --------------------------------------------------------------- pass matrix

def test_pass_matrix_eps_e_band():
    em = matrix_from_errors([[1.0], [3.0], [7.0]])
    pm = build_pass_matrix(em, SelectionConfig(method=Method.LEX_EPS_E, eps_e=5.0))
    assert pm.passes[:, 0].tolist() == [True, True, False]  # threshold 6.0


def test_pass_matrix_eps_e_mad_all_equal_column_passes_everyone():
    em = matrix_from_errors([[2.0], [2.0], [2.0]])
    pm = build_pass_matrix(em, SelectionConfig(method=Method.LEX_EPS_E_MAD))
    assert pm.passes.all()


def test_pass_matrix_eps_y_is_strict():
    em = matrix_from_errors([[0.05], [0.10], [0.20]])
    pm = build_pass_matrix(em, SelectionConfig(method=Method.LEX_EPS_Y, eps_y=0.10))
    assert pm.passes[:, 0].tolist() == [True, False, False]


def test_pass_matrix_eps_y_mad_is_strict():
    em = matrix_from_errors([[0.0], [1.0], [2.0], [3.0]])
    # column MAD = 1.0; pass requires error < 1.0
    pm = build_pass_matrix(em, SelectionConfig(method=Method.LEX_EPS_Y_MAD))
    assert pm.passes[:, 0].tolist() == [True, False, False, False]


def test_pass_matrix_band_methods_always_keep_the_case_best():
    rng = np.random.default_rng(1)
    for method in (Method.LEX_EPS_E, Method.LEX_EPS_E_MAD):
        for _ in range(50):
            em = matrix_from_errors(rng.uniform(size=(6, 5)))
            pm = build_pass_matrix(em, SelectionConfig(method=method))
            elite_rows = em.errors.argmin(axis=0)
            assert pm.passes[elite_rows, np.arange(5)].all()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([Method.LEX_EPS_E, Method.LEX_EPS_E_MAD]),
       st.floats(0.0, 1.7976931348623157e308), st.integers(1, 6), st.integers(1, 5),
       st.data())
def test_every_band_threshold_keeps_each_case_elite(method, eps_e, n, n_cases, data):
    # zero best errors (where eps_e = inf once gave the threshold 0 * inf =
    # NaN) and errors near the float maximum, at any finite eps_e
    values = st.sampled_from([0.0, 5e-324, 1e-7, 0.5, 1.0, 1e200, 1.7976931348623157e308])
    errors = data.draw(st.lists(st.lists(values, min_size=n_cases, max_size=n_cases),
                                min_size=n, max_size=n))
    em = matrix_from_errors(errors)
    with np.errstate(over="ignore"):
        passes = build_pass_matrix(em, SelectionConfig(method=method, eps_e=eps_e)).passes
    assert passes[em.errors.argmin(axis=0), np.arange(n_cases)].all()


def test_pass_matrix_eps_monotone_in_epsilon():
    rng = np.random.default_rng(2)
    em = matrix_from_errors(rng.uniform(size=(8, 6)))
    for method, key in ((Method.LEX_EPS_E, "eps_e"), (Method.LEX_EPS_Y, "eps_y")):
        previous = None
        for eps in (0.0, 0.1, 1.0, 10.0):
            pm = build_pass_matrix(em, SelectionConfig(method=method, **{key: eps}))
            if previous is not None:
                assert (pm.passes | ~previous).all()  # no True -> False flips
            previous = pm.passes


def test_pass_matrix_requires_epsilon_method():
    em = matrix_from_errors([[1.0]])
    with pytest.raises(ValueError):
        build_pass_matrix(em, SelectionConfig(method=Method.LEX))


# ----------------------------------------------------------------- lexicase

def test_lexicase_hand_traced_orders():
    em = matrix_from_errors([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    rng = np.random.default_rng(0)
    ev = lexicase_select(em, None, [0, 1], rng)
    assert (ev.index, ev.cases_examined, ev.tie_break) == (0, 1, False)
    ev = lexicase_select(em, None, [1, 0], rng)
    assert (ev.index, ev.cases_examined, ev.tie_break) == (1, 1, False)


def test_lexicase_identical_rows_falls_through_to_random():
    em = matrix_from_errors(np.ones((4, 3)))
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(200):
        ev = lexicase_select(em, None, [0, 1, 2], rng)
        assert ev.cases_examined == 3
        assert ev.tie_break
        seen.add(ev.index)
    assert seen == {0, 1, 2, 3}


def test_lexicase_single_individual():
    em = matrix_from_errors([[0.3, 0.4]])
    ev = lexicase_select(em, None, [0, 1], np.random.default_rng(4))
    assert ev.index == 0 and ev.cases_examined == 1


def test_lexicase_pool_relative_filtering_after_first_case():
    # case 0 removes the population elite of case 1; the pool minimum on
    # case 1 must then be recomputed within the survivors
    em = matrix_from_errors([
        [0.0, 5.0, 9.0],
        [0.0, 7.0, 1.0],
        [9.0, 0.0, 0.0],
    ])
    ev = lexicase_select(em, None, [0, 1, 2], np.random.default_rng(5))
    assert ev.index == 0 and ev.cases_examined == 2


def test_lexicase_epsilon_skips_unpassable_case_without_emptying_pool():
    em = matrix_from_errors([
        [0.0, 5.0],
        [1.0, 5.0],
    ])
    # eps_y = 0.5: case 0 keeps only row 0; case 1 is passed by nobody
    pm = build_pass_matrix(em, SelectionConfig(method=Method.LEX_EPS_Y, eps_y=0.5))
    for order in ([1, 0], [0, 1]):
        ev = lexicase_select(em, pm, order, np.random.default_rng(6))
        assert ev.index == 0
    # the unpassable case still counts as examined
    ev = lexicase_select(em, pm, [1, 0], np.random.default_rng(7))
    assert ev.cases_examined == 2


def test_lexicase_winner_is_nondominated():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n, cases = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        errors = rng.integers(0, 3, size=(n, cases)).astype(float)
        em = matrix_from_errors(errors)
        order = rng.permutation(cases)
        w = lexicase_select(em, None, order, rng).index
        for j in range(n):
            if j == w:
                continue
            dominates = (errors[j] <= errors[w]).all() and (errors[j] < errors[w]).any()
            assert not dominates


def test_lexicase_continuous_errors_resolve_after_one_case():
    rng = np.random.default_rng(9)
    em = matrix_from_errors(rng.uniform(size=(60, 20)))
    for _ in range(500):
        ev = lexicase_select(em, None, rng.permutation(20), rng)
        assert ev.cases_examined == 1 and not ev.tie_break


def reference_lexicase(errors, passes, order, rng):
    """Lexicase as a plain walk over every case of the order: pool-relative
    elites without a pass matrix, passers with one, skipping a case that no
    one in the pool passes."""
    pool = list(range(len(errors)))
    for examined, t in enumerate(order, start=1):
        if passes is None:
            best = min(errors[i][t] for i in pool)
            pool = [i for i in pool if errors[i][t] == best]
        elif any(passes[i][t] for i in pool):
            pool = [i for i in pool if passes[i][t]]
        else:
            continue
        if len(pool) == 1:
            return pool[0], examined, False
    return pool[int(len(pool) * rng.random())], len(order), True


def test_twin_masks_group_equal_error_rows():
    # against a zero target the outputs are the error rows
    em = matrix_from_errors([[1.0, 2.0], [0.0, 2.0], [1.0, 2.0], [1.0, 2.0], [0.0, 2.0]])
    assert em.output_twins == [0b01101, 0b10010, 0b01101, 0b01101, 0b10010]


def test_pass_twin_masks_group_equal_pass_rows():
    em = matrix_from_errors([[0.0, 2.0], [0.05, 2.0], [0.5, 0.0], [1.0, 2.0]])
    pm = build_pass_matrix(em, SelectionConfig(method=Method.LEX_EPS_Y, eps_y=0.1))
    # rows 0 and 1 pass case 0 only; rows 2 and 3 differ on case 1
    assert pm._twin_masks == [0b0011, 0b0011, 0b0100, 0b1000]


# ------------------------------------------------------------- row grouping

def reference_twin_masks(rows):
    """The dict-of-bytes grouping: one key per row, holding all its bytes."""
    keys = [row.tobytes() for row in rows]
    classes = {}
    for i, key in enumerate(keys):
        classes[key] = classes.get(key, 0) | (1 << i)
    return [classes[key] for key in keys]


def reference_diversity(outputs):
    """The set-of-bytes share of distinct output rows."""
    return len({row.tobytes() for row in outputs}) / len(outputs)


def grouped(rows, collide):
    """twin_masks(rows), with every row hashed to one bucket if ``collide``."""
    with pytest.MonkeyPatch.context() as patch:
        if collide:
            patch.setattr(selection, "hash", lambda data: 0, raising=False)
        return twin_masks(rows)


# zeros of both signs, subnormals, values 1 ulp apart, NaNs of both signs
# and of two payloads
TWIN_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, np.nextafter(1.0, 2.0),
                    np.nextafter(1.0, 0.0), np.inf, np.nan, -np.nan,
                    float(np.array(0x7FF8000000000001).view(float))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(1, 5), st.booleans(), st.data())
def test_twin_masks_equal_the_bytes_key_grouping(n, n_cols, collide, data):
    # few distinct rows, so most rows have exact repeats
    distinct = data.draw(st.lists(st.lists(st.sampled_from(TWIN_EDGE_VALUES),
                                           min_size=n_cols, max_size=n_cols),
                                  min_size=1, max_size=4))
    rows = np.array([distinct[data.draw(st.integers(0, len(distinct) - 1))]
                     for _ in range(n)])
    masks = grouped(rows, collide)
    assert masks == reference_twin_masks(rows)
    assert diversity(masks) == reference_diversity(rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(1, 20), st.booleans(), st.data())
def test_twin_masks_group_packed_pass_rows(n, n_cases, collide, data):
    passes = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n_cases,
                                                  max_size=n_cases),
                                         min_size=n, max_size=n)))
    rows = np.packbits(passes, axis=1)
    assert grouped(rows, collide) == reference_twin_masks(rows)


def test_twin_masks_keep_signed_zeros_apart():
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
    for collide in (False, True):
        assert grouped(rows, collide) == [0b101, 0b010, 0b101]


def test_pack_columns_match_the_transposed_copy_formula():
    rng = np.random.default_rng(19)
    for shape in ((1, 1), (7, 3), (8, 5), (9, 2), (1000, 17)):
        matrix = rng.random(shape) < 0.5
        old = np.packbits(matrix.T.astype(np.uint8), axis=1, bitorder="little")
        assert _pack_columns(matrix) == [int.from_bytes(row.tobytes(), "little")
                                         for row in old]


def test_lexicase_walks_mirrored_outputs_to_the_full_walks_end():
    # y + d and y - d have equal error rows but unequal outputs: twins for
    # the errors, not for the grouping; all values are exact in binary
    y = np.array([1.0, 2.0, 3.0, 4.0])
    d = np.array([0.5, 0.25, 0.0, 1.0])
    outputs = np.array([y + d, y - d, y + [0.0, 1.0, 0.0, 2.0],
                        y - [1.0, 0.0, 0.5, 0.0], y + d, y - [0.5, 0.5, 0.5, 0.5]])
    em = build_error_matrix(outputs, y)
    assert em.errors[0].tolist() == em.errors[1].tolist()
    assert em.output_twins[0] == 0b010001 and em.output_twins[1] == 0b000010
    mirrored_ties = 0
    for order in itertools.permutations(range(4)):
        for seed in range(3):
            fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            ev = lexicase_select(em, None, order, fast_rng)
            expected = reference_lexicase(em.errors.tolist(), None, order, slow_rng)
            assert (ev.index, ev.cases_examined, ev.tie_break) == expected
            assert fast_rng.random() == slow_rng.random()
            mirrored_ties += ev.tie_break and ev.index in (0, 1, 4)
    assert mirrored_ties > 0


def coarse_outputs():
    """1000 x 1024 outputs of four values, so pools often lose every
    population elite of a case and fall back to the pool minimum; the last
    100 rows repeat the first 100."""
    outputs = np.random.default_rng(20).integers(0, 4, size=(1000, 1024)).astype(float)
    outputs[900:] = outputs[:100]
    return outputs


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_standard_lexicase_keeps_no_population_sized_copy():
    em = build_error_matrix(coarse_outputs(), np.zeros(1024))
    rng = np.random.default_rng(21)
    orders = rng.permuted(np.tile(np.arange(1024), (300, 1)), axis=1)

    def events():
        for order in orders:
            lexicase_select(em, None, order, rng)

    # the errors alone are 8 MB
    assert traced_peak(events) < 4e6


def test_grouping_the_outputs_keeps_no_copy_of_them():
    outputs = coarse_outputs()
    masks = []
    # the outputs alone are 8 MB
    assert traced_peak(lambda: masks.extend(twin_masks(outputs))) < 1e6
    assert masks == reference_twin_masks(outputs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(ALL_LEXICASE), st.integers(1, 8), st.integers(1, 6), st.data())
def test_lexicase_equals_a_full_walk(method, n, n_cases, data):
    # few distinct rows and values, so pools often end as one twin class
    distinct = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=n_cases,
                                           max_size=n_cases), min_size=1, max_size=3))
    rows = [distinct[data.draw(st.integers(0, len(distinct) - 1))] for _ in range(n)]
    order = data.draw(st.permutations(range(n_cases)))
    em = matrix_from_errors(rows)
    passes = None
    if method in EPSILON_METHODS:
        passes = build_pass_matrix(em, SelectionConfig(method=method, eps_e=0.5, eps_y=1.5))
    fast_rng, slow_rng = np.random.default_rng(0), np.random.default_rng(0)
    ev = lexicase_select(em, passes, order, fast_rng)
    assert (ev.index, ev.cases_examined, ev.tie_break) == reference_lexicase(
        em.errors.tolist(), None if passes is None else passes.passes.tolist(),
        order, slow_rng)
    assert fast_rng.random() == slow_rng.random()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(EPSILON_METHODS)), st.integers(1, 7), st.integers(1, 6),
       st.data())
def test_epsilon_winner_is_never_strictly_pass_dominated(method, n, n_cases, data):
    # if j passes every case the winner passes and one more, j survives
    # every case alongside the winner and removes it on that extra case
    values = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.5, 1.0])
    errors = data.draw(st.lists(st.lists(values, min_size=n_cases, max_size=n_cases),
                                min_size=n, max_size=n))
    em = matrix_from_errors(errors)
    config = SelectionConfig(method=method, eps_e=data.draw(st.sampled_from([0.0, 0.5, 5.0])),
                             eps_y=data.draw(st.sampled_from([0.05, 0.1, 0.3])))
    passes = build_pass_matrix(em, config).passes
    order = data.draw(st.permutations(range(n_cases)))
    w = lexicase_select(em, build_pass_matrix(em, config), order,
                        np.random.default_rng(data.draw(st.integers(0, 99)))).index
    for j in range(n):
        assert not ((passes[j] >= passes[w]).all() and (passes[j] > passes[w]).any())


def test_lexicase_never_returns_invalid_index():
    rng = np.random.default_rng(10)
    for method in ALL_LEXICASE:
        config = SelectionConfig(method=method, eps_e=float(rng.uniform(0, 6)),
                                 eps_y=float(rng.uniform(0, 1)))
        for _ in range(60):
            em = matrix_from_errors(rng.uniform(size=(int(rng.integers(1, 7)),
                                                      int(rng.integers(1, 7)))))
            passes = build_pass_matrix(em, config) if method in EPSILON_METHODS else None
            ev = lexicase_select(em, passes, rng.permutation(em.n_cases), rng)
            assert 0 <= ev.index < em.n_programs


# ------------------------------------------------------------ exact oracle

def test_exact_probabilities_two_specialists():
    em = matrix_from_errors([[0.0, 1.0], [1.0, 0.0]])
    probs = exact_selection_probabilities(em, SelectionConfig(method=Method.LEX))
    np.testing.assert_allclose(probs, [0.5, 0.5])


def test_exact_probabilities_global_elite_takes_all():
    em = matrix_from_errors([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    probs = exact_selection_probabilities(em, SelectionConfig(method=Method.LEX))
    np.testing.assert_allclose(probs, [1.0, 0.0, 0.0])


def test_exact_probabilities_identical_rows_are_uniform():
    em = matrix_from_errors(np.full((5, 3), 2.0))
    for method in ALL_LEXICASE:
        probs = exact_selection_probabilities(em, SelectionConfig(method=method))
        np.testing.assert_allclose(probs, np.full(5, 0.2))


def test_exact_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    for method in ALL_LEXICASE:
        em = matrix_from_errors(rng.uniform(size=(5, 4)))
        probs = exact_selection_probabilities(em, SelectionConfig(method=method))
        assert probs.sum() == pytest.approx(1.0)


class GridRng:
    """Stub rng whose random() returns (k + 1/2) / 60: over k = 0..59 every
    pool of at most 5 programs is split into exactly equal tie-break shares."""

    def __init__(self, k):
        self.k = k

    def random(self):
        return (self.k + 0.5) / 60


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(ALL_LEXICASE), st.integers(1, 5), st.integers(1, 5), st.data())
def test_lexicase_select_matches_the_exact_oracle(method, n, n_cases, data):
    errors = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n_cases,
                                         max_size=n_cases), min_size=n, max_size=n))
    em = matrix_from_errors(errors)
    config = SelectionConfig(method=method, eps_e=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                             eps_y=data.draw(st.sampled_from([0.5, 1.5, 2.5])))
    passes = build_pass_matrix(em, config) if method in EPSILON_METHODS else None
    orders = list(itertools.permutations(range(n_cases)))
    counts = np.zeros(n)
    for order in orders:
        for k in range(60):
            ev = lexicase_select(em, passes, order, GridRng(k))
            if not ev.tie_break:
                counts[ev.index] += 60
                break
            counts[ev.index] += 1
    np.testing.assert_allclose(counts / (60 * len(orders)),
                               exact_selection_probabilities(em, config), rtol=0, atol=1e-12)


def test_exact_probabilities_guards_factorial_blowup():
    em = matrix_from_errors(np.zeros((2, 9)))
    with pytest.raises(ValueError):
        exact_selection_probabilities(em, SelectionConfig(method=Method.LEX))


def test_empirical_frequencies_match_exact_enumeration():
    rng = np.random.default_rng(12)
    for method in ALL_LEXICASE:
        errors = rng.integers(0, 3, size=(4, 3)).astype(float) / 2.0
        em = matrix_from_errors(errors)
        config = SelectionConfig(method=method, eps_y=0.6)
        exact = exact_selection_probabilities(em, config)
        freq = empirical_frequencies(em, config, 20000, seed=13)
        assert np.abs(freq - exact).max() < 0.02


# ------------------------------------------------- tournament / random

def test_tournament_picks_lowest_fitness():
    rng = np.random.default_rng(14)
    f = np.array([0.5, 0.2])
    wins = 0
    for _ in range(20000):
        ev = tournament_select(f, 2, rng, n_cases=7)
        assert ev.cases_examined == 7
        wins += ev.index
    # index 1 wins exactly when drawn at least once: probability 3/4
    assert wins / 20000 == pytest.approx(0.75, abs=0.02)


def test_tournament_size_one_is_uniform():
    rng = np.random.default_rng(15)
    f = np.array([3.0, 2.0, 1.0, 0.5])
    counts = np.zeros(4)
    for _ in range(40000):
        counts[tournament_select(f, 1, rng, n_cases=3).index] += 1
    assert np.abs(counts / 40000 - 0.25).max() < 0.02


def test_tournament_breaks_ties_uniformly():
    rng = np.random.default_rng(16)
    f = np.zeros(3)
    counts = np.zeros(3)
    for _ in range(30000):
        counts[tournament_select(f, 2, rng, n_cases=1).index] += 1
    assert np.abs(counts / 30000 - 1 / 3).max() < 0.02


def test_tournament_rejects_oversized_draw():
    with pytest.raises(ValueError):
        tournament_select(np.array([1.0]), 2, np.random.default_rng(0), n_cases=1)


def test_random_select_uniform_and_caseless():
    rng = np.random.default_rng(17)
    ev = random_select(1, rng)
    assert (ev.index, ev.cases_examined) == (0, 0)
    counts = np.zeros(4)
    for _ in range(400000):
        counts[random_select(4, rng).index] += 1
    assert np.abs(counts / 400000 - 0.25).max() < 0.01


def test_random_select_seed_reproducible():
    rng_a = np.random.default_rng(18)
    rng_b = np.random.default_rng(18)
    a = [random_select(10, rng_a).index for _ in range(20)]
    b = [random_select(10, rng_b).index for _ in range(20)]
    assert a == b and len(set(a)) > 1


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(method=Method.LEX, eps_e=-1.0)
    for bad in ({"eps_e": float("nan")}, {"eps_y": float("nan")},
                {"eps_e": float("inf")}, {"eps_y": float("inf")}):
        with pytest.raises(ValueError):
            SelectionConfig(method=Method.LEX_EPS_E, **bad)
    assert SelectionConfig(method="lex_eps_e").method is Method.LEX_EPS_E
