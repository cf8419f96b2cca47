"""Expression-tree programs for symbolic regression.

A program is a flat list of nodes in prefix (depth-first) order. Each node is
an Operator, a feature index (int), or a constant (float). Keeping the tree
flat makes subtree extraction a contiguous slice, so crossover and mutation
are cheap, and evaluation runs over whole feature matrices with numpy.

All evaluation is total: protected operators and a magnitude clamp guarantee
a finite output for any finite input row.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
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
    # One division, then the fallback written over the guarded entries; a
    # 0-d quotient becomes a 0-d array so that copyto can write into it.
    out = np.asarray(np.divide(a, b))
    np.copyto(out, 1.0, where=np.abs(b) < GUARD)
    return out


def _exp(a):
    """Exponential with the argument clamped to [-32, 32]."""
    return np.exp(np.minimum(np.maximum(a, -32.0), 32.0))


def _log(a):
    """log(|a|), returning 0.0 wherever |a| is near zero."""
    mag = np.abs(a)
    out = np.asarray(np.log(mag))
    np.copyto(out, 0.0, where=mag < GUARD)
    return out


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


# An EvalMemo's value budget: 256 output vectors, and never more than
# 2 MiB (256 vectors of 1024 rows).
MEMO_VECTORS = 256
MEMO_BYTES = MEMO_VECTORS * 1024 * 8
# Interned subtree ids an EvalMemo keeps before it starts over.
MEMO_IDS = 1 << 12

_FLOAT_BITS = struct.Struct("<d")


class EvalMemo:
    """Outputs of array-valued subtrees on one feature matrix, shared by the
    ``predict`` calls that pass the memo.

    Every subtree gets an integer id interned on its content: an operator
    node is keyed by its operator's function and its children's ids, a
    feature leaf by ("x", index) and a constant leaf by ("c", its exact
    bits), so feature 1 never matches constant 1.0 and 0.0 never matches
    -0.0. Only array-valued outputs are stored, read-only, and the least
    recently used are evicted to keep them within ``max_bytes``:
    MEMO_VECTORS output vectors, and at most MEMO_BYTES. Constant-only
    subtrees stay numpy scalars and are recomputed. The id table holds at
    most ``max_ids`` = MEMO_IDS ids (or one program's, if that is more): a
    program that would overflow it first clears ids and values together.

    The memo is bound to ``X``, which must not change while the memo is used.
    """

    def __init__(self, X):
        self._source = X
        self.X = np.asarray(X, dtype=float)
        self.max_bytes = min(MEMO_BYTES, MEMO_VECTORS * self.X.shape[0] * 8)
        self.max_ids = MEMO_IDS
        self.nbytes = 0
        self._ids: dict = {}
        self._values: OrderedDict[int, np.ndarray] = OrderedDict()
        self._columns = [self.X[:, k] for k in range(self.X.shape[1])]

    def clear(self) -> None:
        self._ids.clear()
        self._values.clear()
        self.nbytes = 0

    def _store(self, key: int, out: np.ndarray) -> None:
        if out.nbytes > self.max_bytes:
            return
        out.flags.writeable = False
        self._values[key] = out
        self.nbytes += out.nbytes
        while self.nbytes > self.max_bytes:
            self.nbytes -= self._values.popitem(last=False)[1].nbytes

    def evaluate(self, nodes):
        """Raw output of a prefix node list; an operator node whose subtree
        output is stored is not computed again."""
        ids, values, columns = self._ids, self._values, self._columns
        if len(ids) + len(nodes) > self.max_ids:
            self.clear()
        # Prefix order scanned right to left: operands are on the stack by
        # the time their operator appears, first pop being the left operand.
        # A parallel stack holds each operand's subtree id.
        id_stack, stack = [], []
        for node in reversed(nodes):
            if isinstance(node, Operator):
                if node.arity == 1:
                    key = (node.fn, id_stack.pop())
                else:
                    key = (node.fn, id_stack.pop(), id_stack.pop())
                nid = ids.get(key)
                if nid is None:
                    nid = ids[key] = len(ids)
                out = values.get(nid)
                if out is None:
                    if node.arity == 1:
                        out = node.fn(stack.pop())
                    else:
                        out = node.fn(stack.pop(), stack.pop())
                    if np.ndim(out):
                        self._store(nid, out)
                else:
                    values.move_to_end(nid)
                    del stack[-node.arity:]
            else:
                if isinstance(node, int):
                    key, out = ("x", node), columns[node]
                else:
                    key, out = ("c", _FLOAT_BITS.pack(node)), node
                nid = ids.get(key)
                if nid is None:
                    nid = ids[key] = len(ids)
            id_stack.append(nid)
            stack.append(out)
        return stack.pop()


def mae(predicted, targets):
    """Mean absolute error along the last axis: a float for one output
    vector, one error per row for a matrix of output vectors."""
    predicted = np.asarray(predicted, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predicted.shape[-1:] != targets.shape:
        raise ValueError(f"length mismatch {predicted.shape} vs {targets.shape}")
    # The absolute value is taken in place: at population scale this keeps
    # one population-sized temporary instead of two.
    deviation = predicted - targets
    np.abs(deviation, out=deviation)
    return deviation.mean(axis=-1)


def predict(program: Program, X, memo: EvalMemo | None = None) -> np.ndarray:
    """Evaluate a program on every row of an N x D feature matrix.

    The result is always finite: overflow in an arithmetic chain (and any
    NaN it could spawn) is mapped back into [-VALUE_LIMIT, VALUE_LIMIT].
    Evaluation always runs through an EvalMemo: the one passed, which must
    be bound to ``X`` and lets stored subtree outputs be reused, or else a
    fresh one. The result is the same bits either way, and may be a
    read-only array that the memo holds.
    """
    if memo is None:
        memo = EvalMemo(X)
    elif X is not memo._source and X is not memo.X:
        raise ValueError("the memo is bound to another feature matrix")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = memo.evaluate(program.nodes)
    if np.ndim(out) == 0:
        out = np.full(memo.X.shape[0], float(out))
    else:
        out = np.asarray(out, dtype=float)
    if not np.isfinite(out).all():
        out = np.nan_to_num(out, nan=0.0, posinf=VALUE_LIMIT, neginf=-VALUE_LIMIT)
    return out


def _random_tree(depth, full: bool, ops: OperatorSet, rng, out: list, at_root=True):
    if depth > 0 and (full or at_root or rng.random() < 0.5):
        op = DEFAULT_OPERATORS[int(rng.integers(len(DEFAULT_OPERATORS)))]
        out.append(op)
        for _ in range(op.arity):
            _random_tree(depth - 1, full, ops, rng, out, at_root=False)
    else:
        out.append(ops.random_terminal(rng))


def _ramp_depths(max_size: int) -> list[int]:
    # Deepest level whose full binary tree still fits the size cap.
    d = 1
    while 2 ** (d + 2) - 1 <= max_size:
        d += 1
    lo = 2 if d >= 2 else d
    return list(range(lo, d + 1))


def random_program(limits: tuple[int, int], ops: OperatorSet, rng) -> Program:
    """Ramped half-and-half generation with size-limit rejection, giving up
    after 1000 draws.

    Each draw picks a depth from the ramp, then a fair coin picks a full
    tree (an operator at every level above that depth) or a grow tree (an
    operator at the root, and below it an operator or a terminal on a fair
    coin at each node until the depth is reached)."""
    min_size, max_size = limits
    if min_size < 1 or max_size < min_size:
        raise ValueError(f"bad size limits {limits}")
    depths = _ramp_depths(max_size)
    for _ in range(1000):
        depth = depths[int(rng.integers(len(depths)))]
        nodes: list = []
        _random_tree(depth, rng.random() < 0.5, ops, rng, nodes)
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


def hill_climb_constants(program: Program, X, y, noise_scale: float, rng,
                         memo: EvalMemo | None = None) -> Program:
    """One constant-tuning pass: perturb every constant with Gaussian noise
    and keep the batch only if the training MAE improves.

    Noise scale is relative, stddev = noise_scale * (1 + |c|), so constants
    of any magnitude get meaningful proposals. Programs without constants
    are returned unchanged. A memo bound to ``X`` lets the candidate reuse
    the outputs of the subtrees it shares with the program.
    """
    positions = program.constants()
    if not positions:
        return program
    base = mae(predict(program, X, memo), y)
    nodes = list(program.nodes)
    for i in positions:
        c = nodes[i]
        nodes[i] = float(c + rng.normal(0.0, noise_scale * (1.0 + abs(c))))
    candidate = Program(nodes, age=program.age)
    trial = mae(predict(candidate, X, memo), y)
    return candidate if trial < base else program
