import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgp import afp
from lexgp.afp import afp_generation, environmental_select, strength_raw
from lexgp.expr import Program


def dominates(a, b) -> bool:
    """Pareto dominance for minimization: no worse everywhere, better once."""
    a0, a1 = a
    b0, b1 = b
    return a0 <= b0 and a1 <= b1 and (a0 < b0 or a1 < b1)


def brute_force_nondominated(points):
    out = set()
    for i, p in enumerate(points):
        if not any(dominates(q, p) for j, q in enumerate(points) if j != i):
            out.add(i)
    return out


# ------------------------------------------------- O(n^2) reference survival

def reference_distances(points):
    scaled = afp._normalized(points)
    diff = scaled[:, None, :] - scaled[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def reference_strength_raw(points):
    """Strength and raw fitness from the full (n, n) dominance matrix."""
    points = np.asarray(points, dtype=float)
    le = (points[:, None, :] <= points[None, :, :]).all(axis=2)
    lt = (points[:, None, :] < points[None, :, :]).any(axis=2)
    dom = le & lt
    strength = dom.sum(axis=1).astype(float)
    raw = dom.T.astype(float) @ strength
    return strength, raw


def reference_scores(points):
    _, raw = reference_strength_raw(points)
    n = points.shape[0]
    k = min(int(np.sqrt(n)), n - 1) if n > 1 else 0
    sigma_k = np.sort(reference_distances(points), axis=1)[:, k]
    return raw, 1.0 / (sigma_k + 2.0)


def scores(points):
    """Raw fitness and the density of every row, as reference_scores gives them."""
    return strength_raw(points)[1], afp._density(points, np.arange(points.shape[0]))


def reference_select(points, capacity):
    """Survivors with scores and truncation distances over the whole pool."""
    n = points.shape[0]
    if n <= capacity:
        return list(range(n))
    raw, density = reference_scores(points)
    total = raw + density
    nondominated = [i for i in range(n) if raw[i] == 0.0]
    if len(nondominated) > capacity:
        chosen = afp._truncate(nondominated, reference_distances(points), capacity)
    else:
        dominated = sorted((i for i in range(n) if raw[i] > 0.0), key=lambda i: total[i])
        chosen = nondominated + dominated[:capacity - len(nondominated)]
    return sorted(chosen)


@st.composite
def pools(draw):
    """(age, MAE) pools with tied ages, tied MAEs and repeated points. Front
    pools put most points on a convex curve of falling MAE, so that the
    nondominated set often outgrows the capacity; the points off the curve
    may stretch the MAE range that normalizes the truncation distances."""
    n = draw(st.integers(1, 40))
    top_age = draw(st.integers(0, 6))
    top_mae = draw(st.integers(0, 8))
    front = draw(st.booleans())
    rows = []
    for _ in range(n):
        age = draw(st.integers(0, top_age))
        if front:
            mae = 4 / (age + 1) + draw(st.sampled_from([0.0, 0.0, 0.0, 0.5, 8.0]))
        else:
            mae = draw(st.integers(0, top_mae)) / 8
        rows.append((age, mae))
    return np.array(rows, dtype=float), draw(st.integers(1, n))


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@PROPERTY
@given(pools())
def test_scores_equal_the_reference_bit_for_bit(pool):
    points, _ = pool
    for fast, slow in zip(strength_raw(points), reference_strength_raw(points)):
        assert fast.tobytes() == slow.tobytes()
    for fast, slow in zip(scores(points), reference_scores(points)):
        assert fast.tobytes() == slow.tobytes()


@PROPERTY
@given(pools(), st.data())
def test_density_of_any_rows_equals_the_reference_bit_for_bit(pool, data):
    points, _ = pool
    rows = data.draw(st.lists(st.integers(0, points.shape[0] - 1), unique=True))
    rows = np.array(rows, dtype=int)
    _, density = reference_scores(points)
    assert afp._density(points, rows).tobytes() == density[rows].tobytes()


def test_density_of_rows_across_blocks_equals_the_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    n = 600  # more rows than two density blocks
    points = np.column_stack([rng.integers(0, 9, n).astype(float),
                              rng.uniform(size=n).round(2)])
    rows = rng.permutation(n)[:520]
    _, density = reference_scores(points)
    assert afp._density(points, rows).tobytes() == density[rows].tobytes()


@PROPERTY
@given(pools())
def test_environmental_select_equals_the_reference(pool):
    points, capacity = pool
    assert environmental_select(points, capacity) == reference_select(points, capacity)


def test_truncation_distances_use_the_whole_pool_normalization():
    # a five-point convex front and one dominated point that stretches the
    # MAE range: cut to 3, the pool-wide scale keeps ages 0, 2 and 4, where
    # the front's own scale would keep ages 0, 1 and 4
    ages = np.arange(5.0)
    points = np.vstack([np.column_stack([ages, 4 / (ages + 1)]), [4.0, 4 / 5 + 8]])
    assert environmental_select(points, 3) == reference_select(points, 3) == [0, 2, 4]


# Raw levels: row 0 at 0, rows 1-4 at 8, rows 5 and 7 at 13, row 6 at 14 and
# row 8 at 21. Rows 2 and 3 share a density; rows 1, 2 and 4 differ.
LEVELS = np.array([(0, 0.0), (1, 0.8), (2, 0.6), (3, 0.4), (4, 0.2),
                   (2, 0.9), (3, 0.7), (4, 0.5), (5, 1.0)])


@pytest.mark.parametrize("capacity, survivors", [
    (2, [0, 4]),  # inside the raw-8 level: its least crowded member, the last row
    (3, [0, 1, 4]),  # inside the raw-8 level, by density rather than by index
    (5, [0, 1, 2, 3, 4]),  # exactly at the raw-8 level's end
    (6, [0, 1, 2, 3, 4, 5]),  # inside the raw-13 level: equal densities go by index
    (7, [0, 1, 2, 3, 4, 5, 7]),  # exactly at the raw-13 level's end, before row 6
])
def test_cut_level_survivors_equal_the_reference(capacity, survivors):
    raw, density = reference_scores(LEVELS)
    assert raw.tolist() == [0, 8, 8, 8, 8, 13, 14, 13, 21]
    assert len({density[1], density[2], density[4]}) == 3 and density[2] == density[3]
    assert environmental_select(LEVELS, capacity) == reference_select(LEVELS, capacity) == survivors


def test_cut_level_totals_that_round_equal_go_to_the_lower_index():
    # (1, 0.3) dominates every other row; rows 1 and 3 make up the raw-4 level.
    # Row 3 is the less crowded, but 4 + density rounds equal for both, so the
    # single open slot goes to row 1.
    points = np.array([(3, 0.7), (1, 0.8999999999999999), (1, 0.9), (3, 0.3), (1, 0.3)])
    raw, density = reference_scores(points)
    assert raw[1] == raw[3] == 4.0
    assert density[3] < density[1] and 4.0 + density[3] == 4.0 + density[1]
    assert environmental_select(points, 2) == reference_select(points, 2) == [1, 4]


def test_environmental_select_sweep_equals_the_reference(monkeypatch):
    levels_read = []
    real_density = afp._density

    def recording_density(points, rows):
        levels_read.append(rows.shape[0])
        return real_density(points, rows)

    monkeypatch.setattr(afp, "_density", recording_density)
    rng = np.random.default_rng(24)
    inside_a_level = 0
    for _ in range(300):
        n = int(rng.integers(2, 41))
        capacity = int(rng.integers(1, n + 1))
        # few distinct ages and MAEs, so raw levels often hold several rows
        points = np.column_stack([rng.integers(0, rng.integers(1, 9), n).astype(float),
                                  rng.integers(0, rng.integers(1, 11), n) / 8])
        calls = len(levels_read)
        assert environmental_select(points, capacity) == reference_select(points, capacity)
        inside_a_level += len(levels_read) > calls
    assert inside_a_level >= 50


def test_density_reads_only_the_level_the_cut_falls_in(monkeypatch):
    rng = np.random.default_rng(0)
    n = 4001
    points = np.column_stack([rng.integers(0, 12, n).astype(float),
                              rng.gamma(2.0, 0.3, n).round(1)])
    levels, starts, sizes = np.unique(np.sort(strength_raw(points)[1]),
                                      return_index=True, return_counts=True)
    widest = int(np.argmax(sizes[1:])) + 1  # the widest level of dominated rows
    start, m = int(starts[widest]), int(sizes[widest])
    assert m >= 2
    rows_read = []
    real_distances = afp._distances

    def recording_distances(rows, cols):
        rows_read.append(rows.shape[0])
        return real_distances(rows, cols)

    monkeypatch.setattr(afp, "_distances", recording_distances)
    assert len(environmental_select(points, start)) == start  # cut at a level boundary
    assert sum(rows_read) == 0
    assert len(environmental_select(points, start + 1)) == start + 1  # cut inside the level
    assert sum(rows_read) == m


def test_survival_memory_stays_below_half_a_pairwise_matrix():
    rng = np.random.default_rng(0)
    n = 4001
    points = np.column_stack([rng.integers(0, 12, n).astype(float),
                              rng.gamma(2.0, 0.3, n).round(4)])
    tracemalloc.start()
    try:
        chosen = environmental_select(points, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chosen) == 2000
    assert peak < n * n * 8 / 2  # bytes: half of one (n, n) float64 array


def test_dominates_needs_strict_improvement():
    assert dominates((1, 0.5), (2, 0.6))
    assert dominates((1, 0.5), (1, 0.6))
    assert not dominates((1, 0.5), (2, 0.3))
    assert not dominates((1, 0.5), (1, 0.5))


def test_strength_raw_mutually_nondominated():
    strength, raw = strength_raw([(1, 0.5), (2, 0.3)])
    assert strength.tolist() == [0.0, 0.0]
    assert raw.tolist() == [0.0, 0.0]


def test_strength_raw_one_dominator():
    strength, raw = strength_raw([(1, 0.5), (2, 0.6)])
    assert strength.tolist() == [1.0, 0.0]
    assert raw.tolist() == [0.0, 1.0]


def test_identical_points_do_not_dominate_each_other():
    strength, raw = strength_raw([(3, 1.0)] * 4)
    assert raw.tolist() == [0.0] * 4


def test_spea2_total_below_one_iff_nondominated():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 25))
        points = np.column_stack([rng.integers(0, 6, n).astype(float),
                                  rng.uniform(size=n).round(2)])
        raw, density = scores(points)
        total = raw + density
        nondominated = brute_force_nondominated([tuple(p) for p in points])
        for i in range(n):
            assert (total[i] < 1.0) == (i in nondominated)


def test_environmental_select_keeps_everyone_when_under_capacity():
    assert environmental_select(np.array([(1, 0.5), (2, 0.4), (3, 0.3)]), 3) == [0, 1, 2]


def test_environmental_select_prefers_nondominated():
    points = np.array([(1, 0.5), (2, 0.4), (3, 0.3), (3, 0.6)])
    assert environmental_select(points, 3) == [0, 1, 2]


def test_environmental_select_truncates_duplicates_first():
    points = np.array([(0, 1.0), (0, 1.0), (1, 0.5), (2, 0.25), (3, 0.1)])
    chosen = environmental_select(points, 4)
    kept = [tuple(points[i]) for i in chosen]
    assert kept.count((0, 1.0)) == 1
    assert len(kept) == 4


def test_environmental_select_fills_with_lowest_total_dominated():
    # one nondominated point, capacity 2: the least-bad dominated joins it
    points = np.array([(1, 0.1), (2, 0.2), (5, 0.9)])
    assert environmental_select(points, 2) == [0, 1]


def test_environmental_select_capacity_exact_and_pareto_consistent():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 31))
        cap = int(rng.integers(1, n + 1))
        points = list(zip(rng.integers(0, 8, n).tolist(),
                          rng.uniform(size=n).round(3).tolist()))
        chosen = environmental_select(np.asarray(points, dtype=float), cap)
        assert len(chosen) == cap
        assert chosen == sorted(set(chosen))
        _, density = scores(np.asarray(points, dtype=float))
        assert ((0.0 < density) & (density < 1.0)).all()
        nondominated = brute_force_nondominated(points)
        kept_flags = [i in chosen for i in range(n)]
        # no dominated candidate may survive while a nondominated one dies
        if any(kept_flags[i] for i in range(n) if i not in nondominated):
            assert all(kept_flags[i] for i in nondominated)


def make_program(age):
    return Program([0], age=age)


def test_afp_generation_pool_size_and_aging(monkeypatch):
    # 2 parents + 2 children + 1 injected, scored by age so survivors are
    # predictable
    pool = [make_program(3), make_program(5), make_program(5), make_program(5),
            make_program(0)]
    seen_pools = []
    real_select = afp.environmental_select

    def recording_select(points, capacity):
        seen_pools.append(len(points))
        return real_select(points, capacity)

    monkeypatch.setattr(afp, "environmental_select", recording_select)
    keep, survivors = afp_generation(pool, [float(p.age) for p in pool], 2)
    assert seen_pools == [5]
    assert len(keep) == 2
    assert keep.tolist() == sorted(set(keep.tolist())) and all(0 <= i < 5 for i in keep)
    assert [s.age for s in survivors] == [pool[i].age + 1 for i in keep]
    assert [s.nodes for s in survivors] == [pool[i].nodes for i in keep]
    assert [p.age for p in pool] == [3, 5, 5, 5, 0]  # the pool itself is untouched


def test_afp_generation_ages_a_repeated_survivor_once():
    program = make_program(1)
    keep, survivors = afp_generation([program, program], [0.5, 0.5], 2)
    assert keep.tolist() == [0, 1]
    assert [s.age for s in survivors] == [2, 2]
    assert program.age == 1


def test_afp_generation_single_slot_keeps_sole_nondominated():
    # parent 0.5, child 0.9, injected 0.3: the injected one dominates all
    pool = [make_program(5), make_program(5), make_program(0)]
    keep, survivors = afp_generation(pool, [0.5, 0.9, 0.3], 1)
    assert keep.tolist() == [2]
    assert survivors == [Program([0], age=1)]  # injected at age 0, aged by survival


def test_environmental_select_rejects_empty_capacity():
    with pytest.raises(ValueError):
        environmental_select(np.array([(1, 0.5)]), 0)
