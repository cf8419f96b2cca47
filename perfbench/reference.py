"""Reference evaluator for lexgp programs.

Written from the protected-operator rules stated in PAPER.md and kept
independent of ``lexgp.expr``: it reads only the program format (a prefix
list of operator nodes with ``name`` and ``arity``, ``int`` feature indices
and ``float`` constants) and never calls an operator's own function.

  x / y    1 where |y| < 1e-6, else the quotient
  log x    log|x|, and 0 where |x| < 1e-6
  exp x    exp of x clamped to [-32, 32]
  result   NaN becomes 0; +-inf becomes +-1e150
"""

from __future__ import annotations

import numpy as np

GUARD = 1e-6
EXP_BOUND = 32.0
OVERFLOW_VALUE = 1e150


def _divide(a, b):
    near_zero = np.abs(b) < GUARD
    return np.where(near_zero, 1.0, a / np.where(near_zero, 1.0, b))


def _log(a):
    magnitude = np.abs(a)
    near_zero = magnitude < GUARD
    return np.where(near_zero, 0.0, np.log(np.where(near_zero, 1.0, magnitude)))


def _exp(a):
    return np.exp(np.clip(a, -EXP_BOUND, EXP_BOUND))


BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _divide,
}
UNARY = {"sin": np.sin, "cos": np.cos, "exp": _exp, "log": _log}


def _subtree(nodes, i: int, X):
    """Value of the subtree rooted at ``nodes[i]`` and the index after it."""
    if i >= len(nodes):
        raise ValueError("program ends inside an operator's operands")
    node = nodes[i]
    if isinstance(node, float):
        return node, i + 1
    if isinstance(node, int):
        if not 0 <= node < X.shape[1]:
            raise ValueError(f"feature index {node} outside {X.shape[1]} columns")
        return X[:, node], i + 1
    name = getattr(node, "name", None)
    if name in UNARY and node.arity == 1:
        a, j = _subtree(nodes, i + 1, X)
        return UNARY[name](a), j
    if name in BINARY and node.arity == 2:
        a, j = _subtree(nodes, i + 1, X)
        b, k = _subtree(nodes, j, X)
        return BINARY[name](a, b), k
    raise ValueError(f"unknown node {node!r}")


def evaluate(nodes, X) -> np.ndarray:
    """Output of a prefix-ordered program on every row of ``X``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    with np.errstate(all="ignore"):
        value, end = _subtree(list(nodes), 0, X)
    if end != len(nodes):
        raise ValueError(f"{len(nodes) - end} nodes left over after the root's subtree")
    out = np.array(np.broadcast_to(value, (X.shape[0],)), dtype=float)
    out[np.isnan(out)] = 0.0
    out[out == np.inf] = OVERFLOW_VALUE
    out[out == -np.inf] = -OVERFLOW_VALUE
    return out


def mae(nodes, X, y) -> float:
    """Mean absolute error of a program on one split."""
    return float(np.mean(np.abs(evaluate(nodes, X) - np.asarray(y, dtype=float))))
