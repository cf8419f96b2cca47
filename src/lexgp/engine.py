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
# faster than narrow ones, and each block is narrowed as it is stored.
ORDER_BLOCK = 128


def case_orders(n_orders: int, n_cases: int, rng) -> np.ndarray:
    """One uniformly shuffled case order per row, the same rows and rng
    draws as one ``rng.permuted(..., axis=1)`` over the whole int64 table,
    stored as ``np.min_scalar_type(n_cases)`` (uint16 at 1024 cases)."""
    orders = np.empty((n_orders, n_cases), dtype=np.min_scalar_type(n_cases))
    cases = np.arange(n_cases)
    for start in range(0, n_orders, ORDER_BLOCK):
        rows = min(ORDER_BLOCK, n_orders - start)
        orders[start:start + rows] = rng.permuted(np.tile(cases, (rows, 1)), axis=1)
    return orders


def _predict_population(population, X, memo: EvalMemo) -> np.ndarray:
    out = np.empty((len(population), X.shape[0]))
    for i, program in enumerate(population):
        out[i] = predict(program, X, memo)
    return out


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
    """
    start = time.perf_counter()
    X_train, y_train = split.train.X, split.train.y
    n_cases = X_train.shape[0]
    pop_size = config.population_size
    method = config.selection.method
    afp = method is Method.AFP
    ops = OperatorSet(split.train.n_features)
    n_cross, n_mut = variation_slots(pop_size, CROSSOVER_FRACTION)

    population = [random_program(SIZE_LIMITS, ops, rng) for _ in range(pop_size)]
    outputs = _predict_population(population, X_train, EvalMemo(X_train))

    def breed(select, events):
        """A full population of children via the crossover/mutation mix,
        constants tuned, plus AFP's injected program, with their training
        outputs; each parent pick is recorded in ``events``."""
        def parent():
            events.append(select())
            return population[events[-1].index]

        children = [subtree_crossover(parent(), parent(), SIZE_LIMITS, rng)
                    for _ in range(n_cross)]
        children += [point_mutation(parent(), ops, rng) for _ in range(n_mut)]
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
        best_idx = int(np.argmin(errors.aggregate))
        best_mae = float(errors.aggregate[best_idx])
        unique_fraction = diversity(errors.output_twins)

        # One parent pick per call: lexicase over pre-drawn case orders, a
        # tournament, or a uniform pick for rand and afp.
        if method in LEXICASE_METHODS:
            passes = (build_pass_matrix(errors, config.selection)
                      if method in EPSILON_METHODS else None)
            orders = iter(case_orders(2 * n_cross + n_mut, n_cases, rng))
            select = lambda: lexicase_select(errors, passes, next(orders), rng)
        elif method is Method.TOURNAMENT:
            select = lambda: tournament_select(errors.aggregate, TOURNAMENT_SIZE, rng, n_cases)
        else:
            select = lambda: random_select(pop_size, rng)
        events = []
        next_population, next_outputs = breed(select, events)
        maes = mae(next_outputs, y_train)

        if afp:
            maes = np.concatenate([errors.aggregate, maes])
            # The error matrix is not needed past this point: free it
            # before survival.
            del errors
            keep, next_population = afp_mod.afp_generation(
                population + next_population, maes, pop_size)
            maes = maes[keep]
            # keep is ascending, so surviving parents come first. Filling one
            # part at a time holds a single temporary gather.
            n_parents = int(np.searchsorted(keep, pop_size))
            survivors = np.empty_like(outputs)
            survivors[:n_parents] = outputs[keep[:n_parents]]
            survivors[n_parents:] = next_outputs[keep[n_parents:] - pop_size]
            next_outputs = survivors

        if float(maes.min()) > best_mae:
            worst = int(np.argmax(maes))
            elite = population[best_idx]
            next_population[worst] = replace(elite, age=elite.age + 1) if afp else elite
            next_outputs[worst] = outputs[best_idx]

        if len(next_population) != pop_size:
            raise RuntimeError(f"population size drifted to {len(next_population)}")
        median_cases = float(np.median([ev.cases_examined for ev in events]))
        records.append(GenerationRecord(gen, best_mae, unique_fraction, median_cases,
                                        time.perf_counter() - gen_start))
        population, outputs = next_population, next_outputs

    final_maes = mae(outputs, y_train)
    best_idx = int(np.argmin(final_maes))
    best = population[best_idx]
    test_error = float(mae(predict(best, split.test.X), split.test.y))
    return RunLog(records, best, float(final_maes[best_idx]), test_error,
                  time.perf_counter() - start)
