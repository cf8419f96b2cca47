"""Generational evolution loop: evaluation, selection, variation, constant
hill climbing, elitism, and per-generation diagnostics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import afp as afp_mod
from .data import SplitDataset
from .expr import (OperatorSet, Program, hill_climb_constants, point_mutation,
                   predict, random_program, subtree_crossover)
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


def mae(predicted, targets) -> float:
    """Mean absolute error between two equal-length vectors."""
    predicted = np.asarray(predicted, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predicted.shape != targets.shape:
        raise ValueError(f"length mismatch {predicted.shape} vs {targets.shape}")
    return float(np.mean(np.abs(predicted - targets)))


def diversity(outputs) -> float:
    """Fraction of bitwise-distinct output vectors in the population."""
    outputs = np.asarray(outputs, dtype=float)
    if outputs.shape[0] < 1:
        raise ValueError("empty population")
    distinct = {row.tobytes() for row in outputs}
    return len(distinct) / outputs.shape[0]


def variation_slots(n_children: int, crossover_fraction: float) -> tuple[int, int]:
    """Deterministic split of child slots into (crossover, mutation) counts."""
    n_cross = int(round(crossover_fraction * n_children))
    return n_cross, n_children - n_cross


def _predict_population(population, X) -> np.ndarray:
    out = np.empty((len(population), X.shape[0]))
    for i, program in enumerate(population):
        out[i] = predict(program, X)
    return out


def _row_maes(outputs, y) -> np.ndarray:
    return np.abs(outputs - y[None, :]).mean(axis=1)


def run_trial(config: EngineConfig, split: SplitDataset, rng) -> RunLog:
    """Evolve one population on the training split and score the winner on
    the test split.

    Each generation: build the error matrix (plus the pass matrix for
    epsilon methods), breed a full population of children through the
    configured selection method and variation mix, hill-climb their
    constants, then reinstate the previous best if every child is worse.
    The AFP method instead breeds from random parents, injects one random
    program, and survives the combined pool through Pareto environmental
    selection.

    Every program is evaluated once, when it is created: the training
    outputs travel with the population, row i belonging to program i.
    """
    start = time.perf_counter()
    X_train, y_train = split.train.X, split.train.y
    n_cases = X_train.shape[0]
    pop_size = config.population_size
    method = config.selection.method
    ops = OperatorSet(split.train.n_features)
    n_cross, n_mut = variation_slots(pop_size, CROSSOVER_FRACTION)

    population = [random_program(SIZE_LIMITS, ops, rng) for _ in range(pop_size)]
    outputs = _predict_population(population, X_train)

    def breed(parents, pick):
        """A full population of children via the crossover/mutation mix,
        constants tuned."""
        children = []
        for _ in range(n_cross):
            a = parents[pick()]
            b = parents[pick()]
            children.append(subtree_crossover(a, b, SIZE_LIMITS, rng))
        for _ in range(n_mut):
            children.append(point_mutation(parents[pick()], ops, rng))
        return [hill_climb_constants(c, X_train, y_train, HILL_CLIMB_SCALE, rng)
                for c in children]

    records: list[GenerationRecord] = []
    for gen in range(config.generations):
        gen_start = time.perf_counter()
        errors = build_error_matrix(outputs, y_train)
        best_idx = int(np.argmin(errors.aggregate))
        best_mae = float(errors.aggregate[best_idx])
        elite = population[best_idx]
        unique_fraction = diversity(outputs)

        events = []

        if method is Method.AFP:
            def pick():
                ev = random_select(pop_size, rng)
                events.append(ev)
                return ev.index

            children = breed(population, pick)
            children.append(random_program(SIZE_LIMITS, ops, rng))
            child_outputs = _predict_population(children, X_train)
            pool = population + children
            pool_maes = np.concatenate([errors.aggregate, _row_maes(child_outputs, y_train)])
            # The error matrix is not needed past this point: free it
            # before survival.
            del errors
            keep = np.asarray(afp_mod.afp_generation(pool, pool_maes, pop_size))
            next_population = [pool[i] for i in keep]
            maes = pool_maes[keep]
            from_parent = keep < pop_size
            next_outputs = np.empty_like(outputs)
            next_outputs[from_parent] = outputs[keep[from_parent]]
            next_outputs[~from_parent] = child_outputs[keep[~from_parent] - pop_size]
        else:
            passes = (build_pass_matrix(errors, config.selection)
                      if method in EPSILON_METHODS else None)
            if method in LEXICASE_METHODS:
                orders = rng.permuted(
                    np.tile(np.arange(n_cases), (2 * n_cross + n_mut, 1)), axis=1)
                order_iter = iter(orders)

                def pick():
                    ev = lexicase_select(errors, passes, next(order_iter), rng)
                    events.append(ev)
                    return ev.index
            elif method is Method.TOURNAMENT:
                def pick():
                    ev = tournament_select(errors.aggregate, TOURNAMENT_SIZE, rng, n_cases)
                    events.append(ev)
                    return ev.index
            elif method is Method.RANDOM:
                def pick():
                    ev = random_select(pop_size, rng)
                    events.append(ev)
                    return ev.index
            else:
                raise ValueError(f"unsupported method {method}")

            next_population = breed(population, pick)
            next_outputs = _predict_population(next_population, X_train)
            maes = _row_maes(next_outputs, y_train)

        if float(maes.min()) > best_mae:
            worst = int(np.argmax(maes))
            if method is Method.AFP:
                elite.age += 1
            next_population[worst] = elite
            next_outputs[worst] = outputs[best_idx]

        if len(next_population) != pop_size:
            raise RuntimeError(f"population size drifted to {len(next_population)}")
        median_cases = float(np.median([ev.cases_examined for ev in events])) if events else 0.0
        records.append(GenerationRecord(gen, best_mae, unique_fraction, median_cases,
                                        time.perf_counter() - gen_start))
        population, outputs = next_population, next_outputs

    final_maes = _row_maes(outputs, y_train)
    best_idx = int(np.argmin(final_maes))
    best = population[best_idx]
    test_error = mae(predict(best, split.test.X), split.test.y)
    return RunLog(records, best, float(final_maes[best_idx]), test_error,
                  time.perf_counter() - start)
