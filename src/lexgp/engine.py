"""Generational evolution loop: evaluation, selection, variation, constant
hill climbing, elitism, and per-generation diagnostics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import afp as afp_mod
from .data import SplitDataset
from .expr import (EvalMemo, OperatorSet, Program, hill_climb_constants, mae,
                   point_mutation, predict, random_program, subtree_crossover)
from .selection import (EPSILON_METHODS, LEXICASE_METHODS, Method, SelectionConfig,
                        build_error_matrix, build_pass_matrix, lexicase_select,
                        random_select, tournament_select)


# The paper's fixed GP settings, shared by every selection method: 80% of
# children by crossover and the rest by point mutation, programs of 3 to 50
# nodes, tournaments of 2, and constant hill climbing with noise scale 0.1.
CROSSOVER_FRACTION = 0.8
SIZE_LIMITS = (3, 50)
TOURNAMENT_SIZE = 2
HILL_CLIMB_SCALE = 0.1


@dataclass
class EngineConfig:
    population_size: int = 1000
    generations: int = 1000
    selection: SelectionConfig = field(default_factory=SelectionConfig)

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population size must be >= 1")
        if self.generations < 0:
            raise ValueError("generation limit must be >= 0")
        if (self.selection.method is Method.TOURNAMENT
                and TOURNAMENT_SIZE > self.population_size):
            raise ValueError(f"tournament size {TOURNAMENT_SIZE} exceeds "
                             f"population size {self.population_size}")


@dataclass
class GenerationRecord:
    generation: int
    best_train_mae: float
    diversity: float
    median_cases_used: float
    elapsed_s: float


@dataclass
class RunLog:
    records: list[GenerationRecord]
    best_program: Program
    best_train_mae: float
    test_mae: float
    total_s: float

    def without_timing(self) -> "RunLog":
        """Copy with the wall-clock fields zeroed, for determinism checks."""
        records = [replace(r, elapsed_s=0.0) for r in self.records]
        return RunLog(records, self.best_program, self.best_train_mae,
                      self.test_mae, 0.0)


def diversity(output_twins) -> float:
    """Fraction of bitwise-distinct output vectors in the population: the
    classes of ``ErrorMatrix.output_twins``, one mask each."""
    if not output_twins:
        raise ValueError("empty population")
    return len(set(output_twins)) / len(output_twins)


def variation_slots(n_children: int, crossover_fraction: float) -> tuple[int, int]:
    """Deterministic split of child slots into (crossover, mutation) counts."""
    n_cross = int(round(crossover_fraction * n_children))
    return n_cross, n_children - n_cross


# Case orders are shuffled this many rows at a time: int64 rows shuffle
# faster than narrow ones, and each block, shuffled in place in one reused
# buffer, is narrowed as it is stored.
ORDER_BLOCK = 128


def case_orders(n_orders: int, n_cases: int, rng) -> np.ndarray:
    """One uniformly shuffled case order per row, the same rows and rng
    draws as one ``rng.permuted(..., axis=1)`` over the whole int64 table,
    stored as ``np.min_scalar_type(n_cases)`` (uint16 at 1024 cases)."""
    orders = np.empty((n_orders, n_cases), dtype=np.min_scalar_type(n_cases))
    cases = np.arange(n_cases)
    buffer = np.empty((min(ORDER_BLOCK, n_orders), n_cases), dtype=cases.dtype)
    for start in range(0, n_orders, ORDER_BLOCK):
        block = buffer[:n_orders - start]
        block[:] = cases
        orders[start:start + block.shape[0]] = rng.permuted(block, axis=1, out=block)
    return orders


def _predict_population(population, X, memo: EvalMemo) -> np.ndarray:
    out = np.empty((len(population), X.shape[0]))
    for i, program in enumerate(population):
        out[i] = predict(program, X, memo)
    return out


def _parent_picker(selection: SelectionConfig, errors, n_picks: int, rng):
    """The generation's parent pick, one per call: lexicase over pre-drawn
    case orders, a tournament, or a uniform pick for rand and afp. The pass
    matrix and the case orders live only in the returned closure."""
    method = selection.method
    if method in LEXICASE_METHODS:
        passes = (build_pass_matrix(errors, selection)
                  if method in EPSILON_METHODS else None)
        orders = iter(case_orders(n_picks, errors.n_cases, rng))
        return lambda: lexicase_select(errors, passes, next(orders), rng)
    if method is Method.TOURNAMENT:
        return lambda: tournament_select(errors.aggregate, TOURNAMENT_SIZE, rng,
                                         errors.n_cases)
    return lambda: random_select(errors.n_programs, rng)


def _gather_survivors(outputs: np.ndarray, child_outputs: np.ndarray, keep) -> None:
    """Overwrite the parents' ``outputs`` with the rows of the survivors
    ``keep``, ascending pool indices that count the parents first and then
    the children. Ascending order moves each parent row to the same or a
    lower row, never over one still to be read, so no temporary is needed."""
    n_parents = outputs.shape[0]
    for row, source in enumerate(keep.tolist()):
        if source < n_parents:
            outputs[row] = outputs[source]
        else:
            outputs[row] = child_outputs[source - n_parents]


def run_trial(config: EngineConfig, split: SplitDataset, rng) -> RunLog:
    """Evolve one population on the training split and score the winner on
    the test split.

    Each generation, every method takes the same steps: build the error
    matrix, breed a full population of children through the method's
    parent selection and the variation mix, hill-climb their constants,
    evaluate them, then reinstate the previous best if every new program
    is worse. AFP breeds from random parents, adds one injected random
    program before evaluation, and survives parents plus children through
    Pareto environmental selection; every other method keeps the children.

    Every program is evaluated once, when it is created: the training
    outputs travel with the population, row i belonging to program i. Each
    generation's evaluations share one EvalMemo, which is dropped before the
    next generation, and each child is evaluated right after its hill climb,
    so it reuses the subtree outputs the climb just computed. Evaluation
    draws nothing from the rng.

    A generation holds at most two |P| x N float matrices at once, plus
    fixed-size extras: the case orders, the pass matrix, the EvalMemo and
    AFP's distance blocks. Once the error matrix is built, every method but
    AFP keeps only the best parent's output row, for elitism. Selection
    ends when the last child is bred; the error matrix, the pass matrix and
    the case orders are freed there, before the children are evaluated.
    AFP writes its survivors' rows into the parents' matrix, and the
    children's MAEs are taken a block of rows at a time.
    """
    start = time.perf_counter()
    X_train, y_train = split.train.X, split.train.y
    n_cases = X_train.shape[0]
    pop_size = config.population_size
    afp = config.selection.method is Method.AFP
    ops = OperatorSet(split.train.n_features)
    n_cross, n_mut = variation_slots(pop_size, CROSSOVER_FRACTION)

    population = [random_program(SIZE_LIMITS, ops, rng) for _ in range(pop_size)]
    outputs = _predict_population(population, X_train, EvalMemo(X_train))

    def breed(select):
        """A full population of children via the crossover/mutation mix,
        constants not yet tuned, and the selection event behind each
        parent pick."""
        events = []

        def parent():
            events.append(select())
            return population[events[-1].index]

        children = [subtree_crossover(parent(), parent(), SIZE_LIMITS, rng)
                    for _ in range(n_cross)]
        children += [point_mutation(parent(), ops, rng) for _ in range(n_mut)]
        return children, events

    def tune_and_evaluate(children):
        """The children with their constants tuned, plus AFP's injected
        program, and their training outputs."""
        memo = EvalMemo(X_train)
        child_outputs = np.empty((len(children) + afp, n_cases))
        for i, child in enumerate(children):
            children[i] = hill_climb_constants(child, X_train, y_train,
                                               HILL_CLIMB_SCALE, rng, memo)
            child_outputs[i] = predict(children[i], X_train, memo)
        if afp:
            children.append(random_program(SIZE_LIMITS, ops, rng))
            child_outputs[-1] = predict(children[-1], X_train, memo)
        return children, child_outputs

    records: list[GenerationRecord] = []
    for gen in range(config.generations):
        gen_start = time.perf_counter()
        errors = build_error_matrix(outputs, y_train)
        parent_maes = errors.aggregate
        best_idx = int(np.argmin(parent_maes))
        best_mae = float(parent_maes[best_idx])
        unique_fraction = diversity(errors.output_twins)
        elite, elite_output = population[best_idx], outputs[best_idx].copy()
        if not afp:
            del outputs  # only AFP's survival reads the parents' rows again

        select = _parent_picker(config.selection, errors, 2 * n_cross + n_mut, rng)
        children, events = breed(select)
        del errors, select  # selection ends here
        children, child_outputs = tune_and_evaluate(children)
        maes = mae(child_outputs, y_train)

        if afp:
            maes = np.concatenate([parent_maes, maes])
            keep, population = afp_mod.afp_generation(population + children, maes,
                                                      pop_size)
            maes = maes[keep]
            _gather_survivors(outputs, child_outputs, keep)
        else:
            population, outputs = children, child_outputs
        del children, child_outputs  # AFP's children's matrix goes here

        if float(maes.min()) > best_mae:
            worst = int(np.argmax(maes))
            population[worst] = replace(elite, age=elite.age + 1) if afp else elite
            outputs[worst] = elite_output

        if len(population) != pop_size:
            raise RuntimeError(f"population size drifted to {len(population)}")
        median_cases = float(np.median([ev.cases_examined for ev in events]))
        records.append(GenerationRecord(gen, best_mae, unique_fraction, median_cases,
                                        time.perf_counter() - gen_start))

    final_maes = mae(outputs, y_train)
    best_idx = int(np.argmin(final_maes))
    best = population[best_idx]
    test_error = float(mae(predict(best, split.test.X), split.test.y))
    return RunLog(records, best, float(final_maes[best_idx]), test_error,
                  time.perf_counter() - start)
