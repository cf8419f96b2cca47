"""Expression-tree programs for symbolic regression.

A program is a flat list of nodes in prefix (depth-first) order. Each node is
an Operator, a feature index (int), or a constant (float). Keeping the tree
flat makes subtree extraction a contiguous slice, so crossover and mutation
are cheap, and evaluation runs over whole feature matrices with numpy.

All evaluation is total: protected operators and a magnitude clamp guarantee
a finite output for any finite input row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Program outputs are sanitized to this magnitude, so an overflowing
# arithmetic chain can never leak inf or NaN out of evaluation.
VALUE_LIMIT = 1e150

# Denominators and log arguments below this magnitude trigger the protected
# fallbacks instead of blowing up.
GUARD = 1e-6


def _div(a, b):
    """Division returning 1.0 wherever the denominator is near zero."""
    near_zero = np.abs(b) < GUARD
    safe = np.where(near_zero, 1.0, b)
    return np.where(near_zero, 1.0, np.divide(a, safe))


def _exp(a):
    """Exponential with the argument clamped to [-32, 32]."""
    return np.exp(np.minimum(np.maximum(a, -32.0), 32.0))


def _log(a):
    """log(|a|), returning 0.0 wherever |a| is near zero."""
    mag = np.abs(a)
    small = mag < GUARD
    return np.where(small, 0.0, np.log(np.where(small, 1.0, mag)))


@dataclass(frozen=True)
class Operator:
    """An internal tree node: a named numpy function with fixed arity."""

    name: str
    arity: int
    fn: Callable


DEFAULT_OPERATORS: tuple[Operator, ...] = (
    Operator("+", 2, np.add),
    Operator("-", 2, np.subtract),
    Operator("*", 2, np.multiply),
    Operator("/", 2, _div),
    Operator("sin", 1, np.sin),
    Operator("cos", 1, np.cos),
    Operator("exp", 1, _exp),
    Operator("log", 1, _log),
)


@dataclass(frozen=True)
class OperatorSet:
    """Terminal configuration for one problem over DEFAULT_OPERATORS.

    Terminals are feature references (one per input column) and ephemeral
    random constants drawn uniformly from ``erc_range``.
    """

    n_features: int
    erc_range: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.n_features < 1:
            raise ValueError("operator set needs at least one feature")
        lo, hi = self.erc_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValueError(f"bad ERC range {self.erc_range}")

    def random_terminal(self, rng):
        """Feature index or fresh constant, uniform over the D+1 choices."""
        k = int(rng.integers(self.n_features + 1))
        if k < self.n_features:
            return k
        lo, hi = self.erc_range
        return float(rng.uniform(lo, hi))


@dataclass(frozen=True, slots=True)
class Program:
    """A symbolic-regression model: prefix node list plus an age counter.

    Programs are immutable: variation operators build new node lists, and
    AFP ages a survivor by ``dataclasses.replace(p, age=p.age + 1)``.
    ``age`` counts generations since the oldest ancestor was created.
    """

    nodes: list
    age: int = 0

    def constants(self) -> list[int]:
        """Positions of constant nodes."""
        return [i for i, node in enumerate(self.nodes) if isinstance(node, float)]

    def __str__(self) -> str:
        text, rest = _format(self.nodes, 0)
        return text


def _format(nodes, i):
    node = nodes[i]
    if isinstance(node, Operator):
        if node.arity == 1:
            inner, j = _format(nodes, i + 1)
            return f"{node.name}({inner})", j
        left, j = _format(nodes, i + 1)
        right, k = _format(nodes, j)
        return f"({left} {node.name} {right})", k
    if isinstance(node, int):
        return f"x{node}", i + 1
    return f"{node:.4g}", i + 1


def node_arity(node) -> int:
    return node.arity if isinstance(node, Operator) else 0


def subtree_span(nodes, start: int) -> int:
    """End index (exclusive) of the subtree rooted at ``start``."""
    pending = 1
    i = start
    while pending:
        pending += node_arity(nodes[i]) - 1
        i += 1
    return i


def predict(program: Program, X) -> np.ndarray:
    """Evaluate a program on every row of an N x D feature matrix.

    The result is always finite: overflow in an arithmetic chain (and any
    NaN it could spawn) is mapped back into [-VALUE_LIMIT, VALUE_LIMIT].
    """
    X = np.asarray(X, dtype=float)
    stack = []
    # Prefix order scanned right to left: operands are on the stack by the
    # time their operator appears, first pop being the left operand.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for node in reversed(program.nodes):
            if isinstance(node, Operator):
                if node.arity == 1:
                    stack.append(node.fn(stack.pop()))
                else:
                    stack.append(node.fn(stack.pop(), stack.pop()))
            elif isinstance(node, int):
                stack.append(X[:, node])
            else:
                stack.append(node)
    out = stack.pop()
    if np.ndim(out) == 0:
        out = np.full(X.shape[0], float(out))
    else:
        out = np.asarray(out, dtype=float)
    if not np.isfinite(out).all():
        out = np.nan_to_num(out, nan=0.0, posinf=VALUE_LIMIT, neginf=-VALUE_LIMIT)
    return out


def _grow(depth, ops: OperatorSet, rng, out: list, at_root=True):
    if depth == 0:
        out.append(ops.random_terminal(rng))
        return
    if at_root or rng.random() < 0.5:
        op = DEFAULT_OPERATORS[int(rng.integers(len(DEFAULT_OPERATORS)))]
        out.append(op)
        for _ in range(op.arity):
            _grow(depth - 1, ops, rng, out, at_root=False)
    else:
        out.append(ops.random_terminal(rng))


def _full(depth, ops: OperatorSet, rng, out: list):
    if depth == 0:
        out.append(ops.random_terminal(rng))
        return
    op = DEFAULT_OPERATORS[int(rng.integers(len(DEFAULT_OPERATORS)))]
    out.append(op)
    for _ in range(op.arity):
        _full(depth - 1, ops, rng, out)


def _ramp_depths(max_size: int) -> list[int]:
    # Deepest level whose full binary tree still fits the size cap.
    d = 1
    while 2 ** (d + 2) - 1 <= max_size:
        d += 1
    lo = 2 if d >= 2 else d
    return list(range(lo, d + 1))


def random_program(limits: tuple[int, int], ops: OperatorSet, rng) -> Program:
    """Ramped half-and-half generation with size-limit rejection, giving up
    after 1000 draws."""
    min_size, max_size = limits
    if min_size < 1 or max_size < min_size:
        raise ValueError(f"bad size limits {limits}")
    depths = _ramp_depths(max_size)
    for _ in range(1000):
        depth = depths[int(rng.integers(len(depths)))]
        nodes: list = []
        if rng.random() < 0.5:
            _full(depth, ops, rng, nodes)
        else:
            _grow(depth, ops, rng, nodes)
        if min_size <= len(nodes) <= max_size:
            return Program(nodes, age=0)
    raise ValueError(f"could not generate a program within size limits {limits}")


def subtree_crossover(parent1: Program, parent2: Program,
                      limits: tuple[int, int], rng) -> Program:
    """Splice a random subtree of parent2 into a random point of parent1.

    Retries up to 10 times when the child breaks the size limits, then falls
    back to a copy of parent1. The child's age is the older parent's age.
    """
    min_size, max_size = limits
    age = max(parent1.age, parent2.age)
    n1, n2 = parent1.nodes, parent2.nodes
    for _ in range(10):
        i = int(rng.integers(len(n1)))
        j = int(rng.integers(len(n2)))
        child = n1[:i] + n2[j:subtree_span(n2, j)] + n1[subtree_span(n1, i):]
        if min_size <= len(child) <= max_size:
            return Program(child, age=age)
    return Program(list(n1), age=age)


def point_mutation(parent: Program, ops: OperatorSet, rng) -> Program:
    """Replace one uniformly chosen node with a random node of equal arity."""
    nodes = list(parent.nodes)
    i = int(rng.integers(len(nodes)))
    node = nodes[i]
    if isinstance(node, Operator):
        candidates = [op for op in DEFAULT_OPERATORS if op.arity == node.arity]
        nodes[i] = candidates[int(rng.integers(len(candidates)))]
    elif isinstance(node, int):
        nodes[i] = int(rng.integers(ops.n_features))
    else:
        lo, hi = ops.erc_range
        nodes[i] = float(rng.uniform(lo, hi))
    return Program(nodes, age=parent.age)


def hill_climb_constants(program: Program, X, y, noise_scale: float, rng) -> Program:
    """One constant-tuning pass: perturb every constant with Gaussian noise
    and keep the batch only if the training MAE improves.

    Noise scale is relative, stddev = noise_scale * (1 + |c|), so constants
    of any magnitude get meaningful proposals. Programs without constants
    are returned unchanged.
    """
    positions = program.constants()
    if not positions:
        return program
    y = np.asarray(y, dtype=float)
    base = float(np.mean(np.abs(predict(program, X) - y)))
    nodes = list(program.nodes)
    for i in positions:
        c = nodes[i]
        nodes[i] = float(c + rng.normal(0.0, noise_scale * (1.0 + abs(c))))
    candidate = Program(nodes, age=program.age)
    trial = float(np.mean(np.abs(predict(candidate, X) - y)))
    return candidate if trial < base else program
