import numpy as np
import pytest

from lexgp import afp
from lexgp.afp import afp_generation, dominates, environmental_select, strength_raw
from lexgp.expr import Program


def brute_force_nondominated(points):
    out = set()
    for i, p in enumerate(points):
        if not any(dominates(q, p) for j, q in enumerate(points) if j != i):
            out.add(i)
    return out


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
        raw, density = afp._scores(points)
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
        _, density = afp._scores(np.asarray(points, dtype=float))
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
    keep = afp_generation(pool, [float(p.age) for p in pool], 2)
    assert seen_pools == [5]
    assert len(keep) == 2
    assert keep == sorted(set(keep)) and all(0 <= i < 5 for i in keep)
    assert all(pool[i].age >= 1 for i in keep)


def test_afp_generation_ages_a_repeated_survivor_once():
    program = make_program(1)
    keep = afp_generation([program, program], [0.5, 0.5], 2)
    assert keep == [0, 1]
    assert program.age == 2


def test_afp_generation_single_slot_keeps_sole_nondominated():
    # parent 0.5, child 0.9, injected 0.3: the injected one dominates all
    pool = [make_program(5), make_program(5), make_program(0)]
    keep = afp_generation(pool, [0.5, 0.9, 0.3], 1)
    assert keep == [2]
    assert pool[2].age == 1  # injected at age 0, aged by survival


def test_environmental_select_rejects_empty_capacity():
    with pytest.raises(ValueError):
        environmental_select(np.array([(1, 0.5)]), 0)
