"""Parent selection: lexicase, four epsilon-lexicase variants, tournament,
and random selection, plus the per-generation error statistics they share.

Lexicase selection shuffles the training cases and filters the candidate
pool case by case, keeping only individuals that pass each case, until one
individual remains (or the cases run out and a survivor is drawn at random).
Standard lexicase passes only pool-elites on a case. The epsilon variants
relax the pass condition with a tolerance so that near-elite individuals
survive filtering on continuous errors:

  eps_e      error within a multiplicative band above the population's best
             error on the case: e <= best * (1 + eps_e)
  eps_y      absolute error below a fixed threshold: e < eps_y
  eps_e_mad  additive band set per case from the population's error spread:
             e <= best + MAD
  eps_y_mad  absolute threshold set per case from the spread: e < MAD

Band-style thresholds (eps_e, eps_e_mad) are closed so the per-case best
individual always passes its own case. All epsilon thresholds are computed
against the whole population once per generation, never re-derived from the
shrinking pool; a case none of the remaining pool can pass is skipped.

Candidate pools are tracked as integer bitmasks, which keeps the filtering
loop cheap even when millions of selection events are drawn.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class Method(str, Enum):
    """Parent-selection / survival strategies the engine understands."""

    LEX = "lex"
    LEX_EPS_E = "lex_eps_e"
    LEX_EPS_Y = "lex_eps_y"
    LEX_EPS_E_MAD = "lex_eps_e_mad"
    LEX_EPS_Y_MAD = "lex_eps_y_mad"
    TOURNAMENT = "tourn"
    RANDOM = "rand"
    AFP = "afp"


EPSILON_METHODS = frozenset({
    Method.LEX_EPS_E, Method.LEX_EPS_Y, Method.LEX_EPS_E_MAD, Method.LEX_EPS_Y_MAD,
})
LEXICASE_METHODS = EPSILON_METHODS | {Method.LEX}


@dataclass
class SelectionConfig:
    method: Method = Method.LEX
    eps_e: float = 5.0
    eps_y: float = 0.10

    def __post_init__(self):
        self.method = Method(self.method)
        # An infinite eps_e would put the threshold 0 * inf = NaN on a case
        # whose best error is 0, so that case's elite would fail it; NaN
        # fails the comparisons too.
        if not all(0 <= eps < np.inf for eps in (self.eps_e, self.eps_y)):
            raise ValueError("epsilon values must be finite and >= 0")


def mad(values, axis=None):
    """Median absolute deviation: median_j |v_j - median_k(v_k)|.

    Over all values (a float) by default, or along ``axis`` (an array).
    """
    v = np.asarray(values, dtype=float)
    if v.size < 1:
        raise ValueError("mad of empty vector")
    deviation = v - np.median(v, axis=axis, keepdims=True)
    np.abs(deviation, out=deviation)
    spread = np.median(deviation, axis=axis, overwrite_input=True)
    return float(spread) if axis is None else spread


def _pack_columns(matrix: np.ndarray) -> list[int]:
    """One bitmask per column; bit i is set when matrix[i, col] is true."""
    packed = np.packbits(matrix.T.astype(np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass
class ErrorMatrix:
    """Per-generation absolute errors with the column statistics selection
    needs: per-case population-best error, per-case MAD, and per-individual
    aggregate MAE."""

    errors: np.ndarray       # |P| x N, entries |y_t - yhat_t(i)|
    case_elite: np.ndarray   # length N column minima
    aggregate: np.ndarray    # length |P| row means

    @property
    def n_programs(self) -> int:
        return self.errors.shape[0]

    @property
    def n_cases(self) -> int:
        return self.errors.shape[1]

    @cached_property
    def case_mad(self) -> np.ndarray:
        """Length N column MADs, computed on first use: only the MAD-based
        epsilon methods read them. Medians along contiguous rows are faster,
        so they are taken on a case-major copy, which is not kept."""
        return mad(np.ascontiguousarray(self.errors.T), axis=1)

    @cached_property
    def _case_major(self) -> np.ndarray:
        """N x |P| contiguous copy of the errors, one row per case."""
        return np.ascontiguousarray(self.errors.T)

    @cached_property
    def _elite_masks(self) -> list[int]:
        return _pack_columns(self.errors == self.case_elite[None, :])

    @cached_property
    def _twin_masks(self) -> list[int]:
        """Per program, the mask of the programs whose error rows are
        bitwise equal to its own ("twins"), itself included."""
        keys = [row.tobytes() for row in self.errors]
        classes: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            classes[key] = classes.get(key, 0) | (1 << i)
        return [classes[key] for key in keys]


def build_error_matrix(outputs, targets) -> ErrorMatrix:
    """Absolute error of every program output vector against the targets."""
    outputs = np.asarray(outputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if outputs.ndim != 2 or outputs.shape[1] != targets.shape[0]:
        raise ValueError(f"bad output matrix shape {outputs.shape} for {targets.shape[0]} cases")
    big = np.finfo(float).max
    with np.errstate(over="ignore", invalid="ignore"):
        errors = np.nan_to_num(np.abs(outputs - targets[None, :]), nan=big, posinf=big)
        aggregate = np.nan_to_num(errors.mean(axis=1), nan=big, posinf=big)
    return ErrorMatrix(errors, errors.min(axis=0), aggregate)


@dataclass
class PassMatrix:
    """Boolean pass/fail of every individual on every case for one epsilon
    method, built once per generation from whole-population statistics."""

    passes: np.ndarray

    @cached_property
    def _case_masks(self) -> list[int]:
        return _pack_columns(self.passes)


def build_pass_matrix(errors: ErrorMatrix, config: SelectionConfig) -> PassMatrix:
    e = errors.errors
    if config.method is Method.LEX_EPS_E:
        passes = e <= errors.case_elite[None, :] * (1.0 + config.eps_e)
    elif config.method is Method.LEX_EPS_Y:
        passes = e < config.eps_y
    elif config.method is Method.LEX_EPS_E_MAD:
        passes = e <= (errors.case_elite + errors.case_mad)[None, :]
    elif config.method is Method.LEX_EPS_Y_MAD:
        passes = e < errors.case_mad[None, :]
    else:
        raise ValueError(f"{config.method.value} has no pass matrix")
    return PassMatrix(passes)


@dataclass(slots=True)
class SelectionEvent:
    """One parent pick: who won, how many cases were examined, and whether
    the pick came down to a random tie-break."""

    index: int
    cases_examined: int
    tie_break: bool


def lexicase_select(errors: ErrorMatrix, passes: PassMatrix | None,
                    case_order, rng) -> SelectionEvent:
    """Select one parent by filtering the pool through cases in the given
    order.

    With ``passes`` None this is standard lexicase: each case keeps only the
    individuals matching the current pool's best error. With a pass matrix,
    each case keeps the individuals that pass it; a case passed by no one in
    the pool is skipped (the thresholds are population-relative, so a pool
    can lose all passers of a case) but still counts as examined. The rng is
    consumed only for the terminal tie-break.
    """
    n = errors.n_programs
    pool = (1 << n) - 1
    examined = 0
    elite_masks = errors._elite_masks if passes is None else None
    twin_masks = errors._twin_masks if passes is None else None
    case_masks = passes._case_masks if passes is not None else None
    for t in case_order:
        examined += 1
        if case_masks is not None:
            survivors = pool & case_masks[t]
            if survivors == 0:
                continue
        else:
            survivors = pool & elite_masks[t]
            if survivors == 0:
                # No population-elite left in the pool: fall back to the
                # pool-relative minimum on this case.
                members = np.array(_bit_indices(pool))
                column = errors._case_major[t, members]
                survivors = 0
                for i in members[column == column.min()].tolist():
                    survivors |= 1 << i
        pool = survivors
        if (pool & (pool - 1)) == 0:
            return SelectionEvent(pool.bit_length() - 1, examined, False)
        if twin_masks is not None and not pool & ~twin_masks[(pool & -pool).bit_length() - 1]:
            # The pool is one class of equal error rows, which no later case
            # can split: the walk would end in this same tie-break.
            examined = len(case_order)
            break
    members = _bit_indices(pool)
    return SelectionEvent(members[int(len(members) * rng.random())], examined, True)


def exact_selection_probabilities(errors: ErrorMatrix,
                                  config: SelectionConfig) -> np.ndarray:
    """Selection probability of every individual under uniformly shuffled
    case orders, by enumerating all N! orderings.

    Test oracle: the filtering and the pass conditions are recomputed here
    from first principles, independently of the bitmask selection path.
    """
    n, n_cases = errors.n_programs, errors.n_cases
    if n_cases > 8:
        raise ValueError(f"{n_cases}! orderings is too many to enumerate")
    e = errors.errors
    if config.method is Method.LEX:
        pass_rows = None
    else:
        best = e.min(axis=0)
        med = np.median(e, axis=0)
        spread = np.median(np.abs(e - med[None, :]), axis=0)
        if config.method is Method.LEX_EPS_E:
            passes = e <= best[None, :] * (1.0 + config.eps_e)
        elif config.method is Method.LEX_EPS_Y:
            passes = e < config.eps_y
        elif config.method is Method.LEX_EPS_E_MAD:
            passes = e <= (best + spread)[None, :]
        elif config.method is Method.LEX_EPS_Y_MAD:
            passes = e < spread[None, :]
        else:
            raise ValueError(f"{config.method.value} is not a lexicase method")
        pass_rows = passes.tolist()
    error_rows = e.tolist()

    probs = np.zeros(n)
    orderings = list(itertools.permutations(range(n_cases)))
    share = 1.0 / len(orderings)
    for order in orderings:
        pool = list(range(n))
        for t in order:
            if pass_rows is None:
                best_in_pool = min(error_rows[i][t] for i in pool)
                pool = [i for i in pool if error_rows[i][t] == best_in_pool]
            else:
                survivors = [i for i in pool if pass_rows[i][t]]
                if survivors:
                    pool = survivors
            if len(pool) == 1:
                break
        for i in pool:
            probs[i] += share / len(pool)
    return probs


def tournament_select(fitness, size: int, rng, n_cases: int) -> SelectionEvent:
    """Draw ``size`` contestants with replacement and keep the lowest
    aggregate fitness, breaking ties uniformly.

    ``n_cases`` is recorded as the cases examined: the aggregate summarizes
    every training case.
    """
    fitness = np.asarray(fitness, dtype=float)
    if size > fitness.shape[0]:
        raise ValueError("tournament larger than the population")
    contestants = rng.integers(0, fitness.shape[0], size)
    values = fitness[contestants]
    tied = np.unique(contestants[values == values.min()])
    if tied.shape[0] == 1:
        return SelectionEvent(int(tied[0]), n_cases, False)
    return SelectionEvent(int(tied[int(tied.shape[0] * rng.random())]), n_cases, True)


def random_select(n_programs: int, rng) -> SelectionEvent:
    """Uniform pick; examines no cases at all."""
    if n_programs < 1:
        raise ValueError("empty population")
    return SelectionEvent(int(rng.integers(n_programs)), 0, True)
