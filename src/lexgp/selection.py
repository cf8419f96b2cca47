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
    Bit-identical to the same formula written with ``np.median``, NaN
    propagation included, but each median asks ``partition`` for a single
    kth, which numpy serves with its SIMD selection rather than the generic
    introselect that several kth values need.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 1:
        raise ValueError("mad of empty vector")
    if axis is None:
        rows = v.reshape(1, -1).copy()
    else:
        # copy() rather than ascontiguousarray: a transposed (P, 1) or (1, N)
        # matrix is already contiguous, and the steps below work in place.
        rows = np.moveaxis(v, axis, -1).copy()
        rows = rows.reshape(-1, rows.shape[-1])
    # A median does not depend on the order of its row, so the deviations
    # can overwrite the partitioned values.
    rows -= _median_rows(rows)[:, None]
    np.abs(rows, out=rows)
    spread = _median_rows(rows)
    if axis is None:
        return float(spread[0])
    axis %= v.ndim
    return spread.reshape(v.shape[:axis] + v.shape[axis + 1:])


def _median_rows(rows: np.ndarray) -> np.ndarray:
    """Median of each row, partitioning ``rows`` in place.

    As ``np.median``: the mean of the two middle values for an even length,
    and NaN for a row holding NaN. Partitioning orders NaN last, so a row's
    NaN sits at the middle index or after it.
    """
    h = rows.shape[1] // 2
    rows.partition(h, axis=1)
    med = rows[:, h].copy()
    if rows.shape[1] % 2 == 0:
        med = (rows[:, :h].max(axis=1) + med) / 2.0
    top = rows[:, h:].max(axis=1)
    np.copyto(med, top, where=np.isnan(top))
    return med


def _pack_columns(matrix: np.ndarray) -> list[int]:
    """One bitmask per column; bit i is set when matrix[i, col] is true."""
    packed = np.packbits(matrix, axis=0, bitorder="little").T
    return [int.from_bytes(column.tobytes(), "little") for column in packed]


def twin_masks(rows: np.ndarray) -> list[int]:
    """Per row, the mask of the rows bitwise equal to it, itself included.
    Rows are bucketed by the hash of their bytes, which are freed before the
    next row; a bucket confirms equality on bytes, so 0.0 and -0.0 differ."""
    buckets: dict[int, list[int]] = {}
    firsts = []                  # per row, the first row of its class
    masks = [0] * len(rows)
    for i, row in enumerate(rows):
        data = row.tobytes()
        bucket = buckets.setdefault(hash(data), [])
        first = next((j for j in bucket if rows[j].tobytes() == data), i)
        if first == i:
            bucket.append(i)
        firsts.append(first)
        masks[first] |= 1 << i
    return [masks[first] for first in firsts]


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
    output_twins: list[int]  # twin_masks of the output rows

    @property
    def n_programs(self) -> int:
        return self.errors.shape[0]

    @property
    def n_cases(self) -> int:
        return self.errors.shape[1]

    @cached_property
    def case_mad(self) -> np.ndarray:
        """Length N column MADs, computed on first use: only the MAD-based
        epsilon methods read them. ``mad`` works on a case-major copy, which
        is not kept, and leaves ``errors`` as it is."""
        return mad(self.errors, axis=0)

    @cached_property
    def _elite_masks(self) -> list[int]:
        return _pack_columns(self.errors == self.case_elite[None, :])


def build_error_matrix(outputs, targets) -> ErrorMatrix:
    """Absolute errors of the output vectors against the targets, and their twins."""
    outputs = np.asarray(outputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if outputs.ndim != 2 or outputs.shape[1] != targets.shape[0]:
        raise ValueError(f"bad output matrix shape {outputs.shape} for {targets.shape[0]} cases")
    big = np.finfo(float).max
    with np.errstate(over="ignore", invalid="ignore"):
        errors = np.subtract(outputs, targets[None, :])
        np.abs(errors, out=errors)
        np.nan_to_num(errors, copy=False, nan=big, posinf=big)
        aggregate = np.nan_to_num(errors.mean(axis=1), nan=big, posinf=big)
    return ErrorMatrix(errors, errors.min(axis=0), aggregate, twin_masks(outputs))


@dataclass
class PassMatrix:
    """Boolean pass/fail of every individual on every case for one epsilon
    method, built once per generation from whole-population statistics."""

    passes: np.ndarray

    @cached_property
    def _case_masks(self) -> list[int]:
        return _pack_columns(self.passes)

    @cached_property
    def _twin_masks(self) -> list[int]:
        """Per program, the mask of the programs whose pass rows are equal
        to its own, itself included. The rows are compared packed to bits:
        byte-per-case rows left the heap 3-8 MB larger at pop 1000."""
        return twin_masks(np.packbits(self.passes, axis=1))


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

    On both paths a pool of twins can never shrink again, so the walk ends
    there, in the same tie-break and with every case counted as examined.
    Twins have equal pass rows with a pass matrix, and bitwise equal outputs
    (``errors.output_twins``) without one.
    """
    n = errors.n_programs
    pool = (1 << n) - 1
    examined = 0
    elite_masks = errors._elite_masks if passes is None else None
    case_masks = passes._case_masks if passes is not None else None
    twins = errors.output_twins if passes is None else passes._twin_masks
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
                column = errors.errors[members, t]
                survivors = 0
                for i in members[column == column.min()].tolist():
                    survivors |= 1 << i
        pool = survivors
        if (pool & (pool - 1)) == 0:
            return SelectionEvent(pool.bit_length() - 1, examined, False)
        if not pool & ~twins[(pool & -pool).bit_length() - 1]:
            # The pool is one class of twins, which no later case can split:
            # the walk would end in this same tie-break.
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
