"""Age-fitness Pareto survival with SPEA2-style environmental selection.

Each generation the engine breeds a full population of children from
randomly chosen parents and injects one fresh random individual as a restart
mechanism; this module then selects survivors from parents + children +
injected by Pareto rank over the (age, training MAE) objectives, both
minimized.

Survival over n candidates costs O(n log n) time for SPEA2 strength and raw
fitness, which are exact integer dominance counts and sums taken by a
Fenwick-tree sweep (Jensen, IEEE TEC 2003), and O(n^2) time but O(256 n)
memory for the k-nearest-neighbor density, taken in blocks of 256 rows.
Crowding truncation builds distances among the nondominated candidates only.
"""

from __future__ import annotations

import numpy as np

from .expr import Program

_DENSITY_ROWS = 256  # rows of the distance matrix held at once for the density


def dominates(a, b) -> bool:
    """Pareto dominance for minimization: no worse everywhere, better once."""
    a0, a1 = a
    b0, b1 = b
    return a0 <= b0 and a1 <= b1 and (a0 < b0 or a1 < b1)


def _normalized(points: np.ndarray) -> np.ndarray:
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    return (points - lo) / span


def _distances(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # Objectives live on incomparable scales (integer age vs MAE), so
    # distances are taken on per-objective [0, 1] normalized coordinates.
    dx = rows[:, 0, None] - cols[None, :, 0]
    dy = rows[:, 1, None] - cols[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


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


def _scores(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SPEA2 raw fitness (0 iff nondominated) and k-NN density in (0, 1);
    raw + density < 1 exactly for nondominated points."""
    _, raw = strength_raw(points)
    n = points.shape[0]
    k = min(int(np.sqrt(n)), n - 1) if n > 1 else 0
    scaled = _normalized(points)
    sigma_k = np.empty(n)
    for start in range(0, n, _DENSITY_ROWS):
        block = _distances(scaled[start:start + _DENSITY_ROWS], scaled)
        sigma_k[start:start + _DENSITY_ROWS] = np.partition(block, k, axis=1)[:, k]
    density = 1.0 / (sigma_k + 2.0)
    return raw, density


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
    raw, density = _scores(points)

    nondominated = np.flatnonzero(raw == 0.0)
    if nondominated.shape[0] > capacity:
        front = _normalized(points)[nondominated]
        kept = _truncate(list(range(front.shape[0])), _distances(front, front), capacity)
        chosen = nondominated[kept]
    else:
        dominated = np.flatnonzero(raw > 0.0)
        total = raw[dominated] + density[dominated]
        dominated = dominated[np.argsort(total, kind="stable")]
        chosen = np.concatenate([nondominated, dominated[:capacity - nondominated.shape[0]]])
    return sorted(chosen.tolist())


def afp_generation(pool: list[Program], maes, capacity: int) -> list[int]:
    """Survival over one generation's pool of programs scored by training MAE.

    The engine's pool holds the parents, |P| bred children and one injected
    random program (2|P| + 1 candidates). Returns the ascending pool indices
    of the ``capacity`` survivors and advances the age of each distinct
    surviving program by one generation.
    """
    points = np.column_stack([[p.age for p in pool], maes]).astype(float)
    keep = environmental_select(points, capacity)
    for program in {id(pool[i]): pool[i] for i in keep}.values():
        program.age += 1
    return keep
