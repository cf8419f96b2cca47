"""Age-fitness Pareto survival with SPEA2-style environmental selection.

Each generation the engine breeds a full population of children from
randomly chosen parents and injects one fresh random individual as a restart
mechanism; this module then selects survivors from parents + children +
injected by Pareto rank over the (age, training MAE) objectives, both
minimized.

Survival over n candidates costs O(n log n) time for SPEA2 strength and raw
fitness, exact integer dominance counts and sums from a Fenwick-tree sweep
(Jensen, IEEE TEC 2003), plus O(m n) time and O(256 n) memory for the k-NN
density of the m members of the raw-fitness level the capacity cut falls in.
Crowding truncation builds distances among the nondominated candidates only.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .expr import Program

_DENSITY_ROWS = 256  # rows of the distance matrix held at once for the density


def _normalized(points: np.ndarray) -> np.ndarray:
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    return (points - lo) / span


def _distances(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # Objectives live on incomparable scales (integer age vs MAE), so
    # distances are taken on per-objective [0, 1] normalized coordinates.
    # Squares, sum and root are taken in place, so a block holds two
    # temporaries of its size rather than five.
    dx = rows[:, 0, None] - cols[None, :, 0]
    dy = rows[:, 1, None] - cols[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    return np.unique(values, return_inverse=True)[1]


def _upper_sums(first: np.ndarray, second: np.ndarray, weights: list[int]) -> list[int]:
    """For each point j, the sum of ``weights[i]`` over the points i with
    first_i >= first_j and second_i >= second_j, j included.

    ``first`` and ``second`` are integer ranks. One sweep in descending
    ``first`` order over a Fenwick tree indexed by ``second``; each group of
    equal ``first`` is inserted before any of it is queried, so ties count.
    """
    top = int(second.max())
    size = top - int(second.min()) + 1
    slots = (top - second + 1).tolist()  # 1-based; a prefix is "second >= s"
    order = np.argsort(-first, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(first[order])) + 1)
    tree = [0] * (size + 1)
    sums = [0] * len(slots)
    for group in groups:
        members = group.tolist()
        for i in members:
            slot, weight = slots[i], weights[i]
            while slot <= size:
                tree[slot] += weight
                slot += slot & -slot
        for i in members:
            slot, total = slots[i], 0
            while slot:
                total += tree[slot]
                slot &= slot - 1
            sums[i] = total
    return sums


def strength_raw(points) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate dominance strength and raw fitness.

    Strength is how many candidates a point dominates; raw fitness is the
    summed strength of the candidates dominating it. With ``copies(j)`` the
    number of candidates equal to j (j included),
    S(j) = #{i weakly dominated by j} - copies(j) and
    raw(i) = sum of S(j) over j weakly dominating i, - copies(i) * S(i).
    """
    points = np.asarray(points, dtype=float)
    age = _dense_ranks(points[:, 0])
    mae = _dense_ranks(points[:, 1])
    _, same, copies = np.unique(age * (int(mae.max()) + 1) + mae,
                                return_inverse=True, return_counts=True)
    copies = copies[same]
    strength = np.array(_upper_sums(age, mae, [1] * len(age))) - copies
    # Negated ranks sum over the points weakly dominating each point instead.
    raw = np.array(_upper_sums(-age, -mae, strength.tolist())) - copies * strength
    return strength.astype(float), raw.astype(float)


def _density(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """SPEA2 k-NN density in (0, 0.5] of the candidates ``rows``, from their
    distances to the whole pool on the whole pool's normalized coordinates."""
    k = min(int(np.sqrt(len(points))), len(points) - 1)
    scaled = _normalized(points)
    sigma_k = np.empty(len(rows))
    for start in range(0, len(rows), _DENSITY_ROWS):
        block = _distances(scaled[rows[start:start + _DENSITY_ROWS]], scaled)
        sigma_k[start:start + _DENSITY_ROWS] = np.partition(block, k, axis=1)[:, k]
    return 1.0 / (sigma_k + 2.0)


def _truncate(indices: list[int], dist: np.ndarray, capacity: int) -> list[int]:
    """SPEA2 truncation: repeatedly drop the candidate crowding its nearest
    neighbor most, breaking ties by farther neighbors, then by index."""
    alive = list(indices)
    while len(alive) > capacity:
        sub = dist[np.ix_(alive, alive)]
        np.fill_diagonal(sub, np.inf)
        nearest = sub.min(axis=1)
        tied = np.flatnonzero(nearest == nearest.min())
        if tied.shape[0] > 1:
            ordered = np.sort(sub[tied], axis=1)
            drop = tied[min(range(tied.shape[0]), key=lambda r: tuple(ordered[r]))]
        else:
            drop = tied[0]
        del alive[int(drop)]
    return alive


def environmental_select(points, capacity: int) -> list[int]:
    """Ascending indices of the ``capacity`` survivors among the rows of an
    ``(n, 2)`` array of (age, training MAE): all nondominated candidates
    (truncated by crowding when too many), padded with the best-scoring
    dominated ones."""
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n <= capacity:
        return list(range(n))
    _, raw = strength_raw(points)

    nondominated = np.flatnonzero(raw == 0.0)
    if nondominated.shape[0] > capacity:
        front = _normalized(points)[nondominated]
        kept = _truncate(list(range(front.shape[0])), _distances(front, front), capacity)
        chosen = nondominated[kept]
    else:
        cut = np.sort(raw)[capacity]  # raw + density keeps whole raw levels apart
        level = np.flatnonzero(raw == cut)
        short = capacity - np.count_nonzero(raw < cut)
        if short:  # the cut falls inside the level: lowest raw + density, ties by index
            level = level[np.argsort(cut + _density(points, level), kind="stable")]
        chosen = np.concatenate([np.flatnonzero(raw < cut), level[:short]])
    return sorted(chosen.tolist())


def afp_generation(pool: list[Program], maes, capacity: int
                   ) -> tuple[np.ndarray, list[Program]]:
    """Survival over one generation's pool of programs scored by training MAE.

    The engine's pool holds the parents, |P| bred children and one injected
    random program (2|P| + 1 candidates). Returns the ascending pool indices
    of the ``capacity`` survivors and the survivors themselves, each one
    generation older.
    """
    points = np.column_stack([[p.age for p in pool], maes]).astype(float)
    keep = np.asarray(environmental_select(points, capacity))
    return keep, [replace(pool[i], age=pool[i].age + 1) for i in keep.tolist()]
