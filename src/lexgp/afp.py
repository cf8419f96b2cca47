"""Age-fitness Pareto survival with SPEA2-style environmental selection.

Each generation the engine breeds a full population of children from
randomly chosen parents and injects one fresh random individual as a restart
mechanism; this module then selects survivors from parents + children +
injected by Pareto rank over the (age, training MAE) objectives, both
minimized.
"""

from __future__ import annotations

import numpy as np

from .expr import Program


def dominates(a, b) -> bool:
    """Pareto dominance for minimization: no worse everywhere, better once."""
    a0, a1 = a
    b0, b1 = b
    return a0 <= b0 and a1 <= b1 and (a0 < b0 or a1 < b1)


def _dominance(points: np.ndarray) -> np.ndarray:
    le = (points[:, None, :] <= points[None, :, :]).all(axis=2)
    lt = (points[:, None, :] < points[None, :, :]).any(axis=2)
    return le & lt


def _normalized(points: np.ndarray) -> np.ndarray:
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    return (points - lo) / span


def _distance_matrix(points: np.ndarray) -> np.ndarray:
    # Objectives live on incomparable scales (integer age vs MAE), so
    # distances are taken on per-objective [0, 1] normalized coordinates.
    scaled = _normalized(points)
    diff = scaled[:, None, :] - scaled[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def strength_raw(points) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate dominance strength and raw fitness."""
    points = np.asarray(points, dtype=float)
    dom = _dominance(points)
    strength = dom.sum(axis=1).astype(float)
    raw = dom.T.astype(float) @ strength
    return strength, raw


def _scores(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SPEA2 raw fitness (0 iff nondominated) and k-NN density in (0, 1);
    raw + density < 1 exactly for nondominated points."""
    _, raw = strength_raw(points)
    n = points.shape[0]
    k = min(int(np.sqrt(n)), n - 1) if n > 1 else 0
    dist = _distance_matrix(points)
    sigma_k = np.sort(dist, axis=1)[:, k]
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
    total = raw + density

    nondominated = [i for i in range(n) if raw[i] == 0.0]
    if len(nondominated) > capacity:
        dist = _distance_matrix(points)
        chosen = _truncate(nondominated, dist, capacity)
    else:
        dominated = [i for i in range(n) if raw[i] > 0.0]
        dominated.sort(key=lambda i: total[i])
        chosen = nondominated + dominated[:capacity - len(nondominated)]
    return sorted(chosen)


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
