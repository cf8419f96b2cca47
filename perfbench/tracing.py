"""Tracing from outside the program.

A Tracer replaces lexgp's public functions at the module attributes where
their callers look them up (``lexgp.engine.predict`` for the engine's
evaluations, ``lexgp.expr.predict`` for hill climbing's inner calls, and so
on), so ``src/`` is never edited. Each call records a span (name, parent,
start, end) in memory. When a root span closes, the finished tree is folded
into per-name totals and self times (a span's duration minus the part its
child spans cover) and cleared, which bounds memory to one trial's spans.
Hooks record exact counts at the same boundaries.

Trial workers of the CLI's process pool are forked after the tracer is
installed, so they run traced code; each worker writes its totals to a file
after every trial and the parent merges them.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name). Engine-side targets are patched where
# run_trial and afp_generation look them up.
ENGINE_TARGETS = [
    ("lexgp.engine", "run_trial", "engine.run_trial"),
    ("lexgp.engine", "predict", "expr.predict"),
    ("lexgp.expr", "predict", "expr.predict"),
    ("lexgp.engine", "hill_climb_constants", "expr.hill_climb"),
    ("lexgp.engine", "subtree_crossover", "expr.variation"),
    ("lexgp.engine", "point_mutation", "expr.variation"),
    ("lexgp.engine", "random_program", "expr.random_program"),
    ("lexgp.engine", "build_error_matrix", "selection.error_matrix"),
    ("lexgp.engine", "build_pass_matrix", "selection.pass_matrix"),
    ("lexgp.engine", "lexicase_select", "selection.select"),
    ("lexgp.engine", "tournament_select", "selection.select"),
    ("lexgp.engine", "random_select", "selection.select"),
    ("lexgp.engine", "diversity", "engine.diversity"),
    ("lexgp.afp", "afp_generation", "afp.generation"),
    ("lexgp.afp", "environmental_select", "afp.survival"),
]
CLI_TARGETS = [
    ("lexgp.cli", "run_experiment", "cli.run_experiment"),
    ("lexgp.cli", "load_csv", "data.load"),
    ("lexgp.cli", "split_normalize", "data.split"),
    ("lexgp.cli", "_write_csv", "cli.write"),
    ("lexgp.cli", "run_trial", "engine.run_trial"),
]
DATA_TARGETS = [
    ("lexgp.data", "load_csv", "data.load"),
    ("lexgp.data", "split_normalize", "data.split"),
    ("lexgp.data", "generate_uball5d", "data.split"),
]


def _count_predict(tracer, args, result):
    program, X = args[0], args[1]
    tracer.counts["predict_node_rows"] += len(program.nodes) * len(X)


def _count_climb(tracer, args, result):
    if any(isinstance(node, float) for node in args[0].nodes):
        tracer.counts["climb_attempted"] += 1
        tracer.counts["climb_accepted"] += result is not args[0]


def _count_child(tracer, args, result):
    tracer.counts["children"] += 1
    tracer.counts["child_nodes"] += len(result.nodes)


def _count_event(tracer, args, result):
    tracer.counts["events"] += 1
    tracer.counts["ties"] += result.tie_break
    tracer.cases[result.cases_examined] += 1
    tracer.generation_parents.append(result.index)


def _count_generation(tracer, args, result):
    tracer.close_generation()


def _count_survival(tracer, args, result):
    tracer.counts["survival_candidates"] += len(args[0])


def _count_trial(tracer, args, result):
    config = args[0]
    tracer.close_generation()
    tracer.counts["program_generations"] += config.population_size * config.generations
    if tracer.dump_dir is not None and os.getpid() != tracer.pid:
        tracer.dump_and_reset()


HOOKS = {
    "expr.predict": _count_predict,
    "expr.hill_climb": _count_climb,
    "expr.variation": _count_child,
    "selection.select": _count_event,
    "selection.error_matrix": _count_generation,
    "afp.survival": _count_survival,
    "engine.run_trial": _count_trial,
}


class Tracer:
    """In-memory spans and counters for one benchmark phase."""

    def __init__(self, dump_dir: Path | None = None):
        self.pid = os.getpid()
        self.dump_dir = dump_dir
        self._patched: list[tuple[object, str, object]] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._dumps = 0
        self.reset()

    def reset(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self.totals: dict[str, list[float]] = {}
        self.counts: Counter = Counter()
        self.cases: Counter = Counter()
        self.generation_parents: list[int] = []
        self.distinct_shares: list[float] = []

    def close_generation(self) -> None:
        """End the current generation's parent-selection tally."""
        picks = self.generation_parents
        if picks:
            self.distinct_shares.append(len(set(picks)) / len(picks))
            picks.clear()

    # ---------------------------------------------------------- patching

    def install(self, targets) -> "Tracer":
        """Patch every target; use as ``with tracer.install(...):`` so the
        originals come back however the block ends."""
        import importlib

        # Import every target module before patching any, so that a module
        # importing names from another (``lexgp.cli`` from ``lexgp.engine``)
        # binds the originals, never a wrapper.
        for module_name in {t[0] for t in ENGINE_TARGETS + CLI_TARGETS + DATA_TARGETS}:
            importlib.import_module(module_name)
        for module_name, attr, span in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, HOOKS.get(span)))
        if self.dump_dir is not None:
            os.register_at_fork(after_in_child=self.reset)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if not stack:
                    self._fold()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _fold(self) -> None:
        """Fold the finished span tree into per-name calls, total and self time."""
        child_time = [0.0] * len(self._spans)
        for name, parent, start, end in self._spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, _, start, end), covered in zip(self._spans, child_time):
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        self._spans.clear()

    # ------------------------------------------------- worker hand-off

    def state(self) -> dict:
        self.close_generation()
        return {
            "totals": self.totals,
            "counts": dict(self.counts),
            "cases": {str(k): v for k, v in self.cases.items()},
            "distinct_shares": self.distinct_shares,
        }

    def dump_and_reset(self) -> None:
        self._dumps += 1
        path = self.dump_dir / f"worker-{os.getpid()}-{self._dumps}.json"
        path.write_text(json.dumps(self.state()), encoding="utf-8")
        self.reset()

    def merge(self, state: dict) -> None:
        for name, (calls, total, self_s) in state["totals"].items():
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        self.counts.update(state["counts"])
        self.cases.update({int(k): v for k, v in state["cases"].items()})
        self.distinct_shares.extend(state["distinct_shares"])

    def merge_dumps(self) -> int:
        """Merge every worker file; returns how many trials they cover."""
        dumps = sorted(self.dump_dir.glob("worker-*.json"))
        for path in dumps:
            self.merge(json.loads(path.read_text(encoding="utf-8")))
        return len(dumps)


# ----------------------------------------------------------- metrics

PER_LAYER = [
    # name, unit, better
    ("expr.predict.calls_per_program_gen", "calls/prog/gen", "lower"),
    ("expr.predict.ns_per_node_row", "ns", "lower"),
    ("expr.hill_climb.us_per_child", "us", "lower"),
    ("expr.hill_climb.accept_rate", "share", "higher"),
    ("expr.variation.us_per_child", "us", "lower"),
    ("expr.mean_program_size", "nodes", "lower"),
    ("selection.error_matrix.ms_per_gen", "ms", "lower"),
    ("selection.pass_matrix.ms_per_gen", "ms", "lower"),
    ("selection.select.us_per_event", "us", "lower"),
    ("selection.cases_examined_p50", "cases", "lower"),
    ("selection.tie_break_rate", "share", "lower"),
    ("selection.distinct_parent_share", "share", "higher"),
    ("afp.survival.ms_per_gen", "ms", "lower"),
    ("afp.survival.candidates", "count", "lower"),
    ("engine.self_share", "share", "lower"),
    ("engine.diversity.ms_per_gen", "ms", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.split_s", "s", "lower"),
    ("cli.pool_busy_share", "share", "higher"),
    ("cli.write_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_of_histogram(hist: Counter) -> float:
    values = []
    for value, count in sorted(hist.items()):
        values.extend([value] * count)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(run: Tracer, setup: Tracer, *, jobs: int, wall_s: float,
                  overhead_share: float) -> dict[str, float]:
    """Per-layer metrics from a traced run and its traced set-up.

    Layers a workload does not exercise (pass matrices under ``lex``, AFP
    survival under lexicase, the CSV layer outside ``cli_matrix``) read 0.
    """
    def span(name, tracer=run):
        return tracer.totals.get(name, (0, 0.0, 0.0))

    def per_call(name, scale, tracer=run):
        calls, total, _ = span(name, tracer)
        return _ratio(total, calls) * scale

    c = run.counts
    busy = span("engine.run_trial")[1] + span("data.split")[1]
    return {
        "expr.predict.calls_per_program_gen": _ratio(span("expr.predict")[0],
                                                     c["program_generations"]),
        "expr.predict.ns_per_node_row": _ratio(span("expr.predict")[2] * 1e9,
                                               c["predict_node_rows"]),
        "expr.hill_climb.us_per_child": per_call("expr.hill_climb", 1e6),
        "expr.hill_climb.accept_rate": _ratio(c["climb_accepted"], c["climb_attempted"]),
        "expr.variation.us_per_child": per_call("expr.variation", 1e6),
        "expr.mean_program_size": _ratio(c["child_nodes"], c["children"]),
        "selection.error_matrix.ms_per_gen": per_call("selection.error_matrix", 1e3),
        "selection.pass_matrix.ms_per_gen": per_call("selection.pass_matrix", 1e3),
        "selection.select.us_per_event": per_call("selection.select", 1e6),
        "selection.cases_examined_p50": _median_of_histogram(run.cases),
        "selection.tie_break_rate": _ratio(c["ties"], c["events"]),
        "selection.distinct_parent_share": (statistics.fmean(run.distinct_shares)
                                            if run.distinct_shares else 0.0),
        "afp.survival.ms_per_gen": per_call("afp.survival", 1e3),
        "afp.survival.candidates": _ratio(c["survival_candidates"], span("afp.survival")[0]),
        "engine.self_share": _ratio(span("engine.run_trial")[2], span("engine.run_trial")[1]),
        "engine.diversity.ms_per_gen": per_call("engine.diversity", 1e3),
        "data.load_s": per_call("data.load", 1.0, setup),
        "data.split_s": per_call("data.split", 1.0, setup),
        "cli.pool_busy_share": (_ratio(busy, jobs * wall_s)
                                if "cli.run_experiment" in run.totals else 0.0),
        "cli.write_ms": per_call("cli.write", 1e3),
        "trace.overhead_share": overhead_share,
    }


def span_table(tracer: Tracer, phase: str) -> list[str]:
    return [f"span {phase:5s} {name:24s} calls={calls:9d} total_s={total:10.4f} "
            f"self_s={self_s:10.4f}"
            for name, (calls, total, self_s) in sorted(tracer.totals.items())]
