"""Span tracing of the fm3q package from outside it.

A `Tracer` replaces every public function of the traced modules at each
binding where a caller looks it up: `learner.step`, `evaluation.step` and
`baselines.step` are separate bindings of `games.step`, and all of them
record under the one name `games.step`. A few hot methods named in
`TRACED_METHODS` are wrapped on their classes. Nothing under `src/` changes.

Spans stay in memory as parallel lists (name id, start, end, parent) and are
written out once, after the traced run. A span's self time is its duration
minus the time covered by its child spans; calls are single-threaded, so
children never overlap and that time is the sum of their durations.
"""

from __future__ import annotations

import gzip
import time
import types

TRACED_MODULES = ("games", "learner", "numerics", "oracle", "evaluation", "baselines", "cli")

#: (module, class, method) wrapped on the class itself.
TRACED_METHODS = (
    ("numerics", "DenseNet", "forward"),
    ("learner", "ReplayBuffer", "add"),
    ("learner", "ReplayBuffer", "take"),
    ("learner", "NeuralFactorizedQ", "q_tot_tape"),
)


def _forward_rows(args, kwargs, result):
    x = args[3] if len(args) > 3 else kwargs["x"]
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _solve_cost(args, kwargs, result):
    game = args[0] if args else kwargs["game"]
    # compulsory traffic of one iteration: read P, R and Q, write Q'
    return result.iterations, game.P.nbytes + 3 * game.R.nbytes


#: Span name -> function of (args, kwargs, result) whose value is kept per
#: call. Observers run after the span closes and only keep references or
#: read shapes, so they add nothing to any span's self time worth noting.
OBSERVERS = {
    "learner.loss": lambda args, kwargs, result: args[2] if len(args) > 2 else kwargs["batch"],
    "numerics.DenseNet.forward": _forward_rows,
    "oracle.solve_superb_q": _solve_cost,
    "oracle.best_response": lambda args, kwargs, result: result.iterations,
    "evaluation.play_match": lambda args, kwargs, result: result,
}


class Tracer:
    """Installs wrappers on entry and restores the originals on exit."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.observed: dict[str, list] = {name: [] for name in OBSERVERS}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # installation -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        traced = {f"fm3q.{name}" for name in TRACED_MODULES}
        try:
            for mod_name in TRACED_MODULES:
                module = self.modules[mod_name]
                for attr, value in list(vars(module).items()):
                    if (
                        isinstance(value, types.FunctionType)
                        and value.__module__ in traced
                        and not value.__name__.startswith("_")
                    ):
                        short = value.__module__.split(".")[-1]
                        self._patch(module, attr, f"{short}.{value.__qualname__}")
            for mod_name, cls_name, method in TRACED_METHODS:
                cls = getattr(self.modules[mod_name], cls_name)
                self._patch(cls, method, f"{mod_name}.{cls_name}.{method}")
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, name: str) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        observer = OBSERVERS.get(name)
        observed = self.observed.get(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0)
            span_end.append(0)
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[i] = start
                span_end[i] = end
            if observer is not None:
                observed.append(observer(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # results ----------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self time in ms)."""
        count = len(self.span_name)
        child = [0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(count):
            nid = self.span_name[i]
            calls[nid] += 1
            self_ns[nid] += self.span_end[i] - self.span_start[i] - child[i]
        return {
            name: (calls[nid], self_ns[nid] / 1e6) for nid, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """All spans as gzipped CSV: name, start_ns, end_ns, parent row."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.names[self.span_name[i]]},{self.span_start[i]},"
                    f"{self.span_end[i]},{self.span_parent[i]}\n"
                )
