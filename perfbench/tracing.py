"""Per-layer tracing of the mackey package from outside it.

``Tracer.install`` replaces the public functions of the layers with
wrappers. A function imported by name lives in several module attributes
(``brute`` imports ``nullspace``, ``socle`` imports ``coproduct``, the
package re-exports most names), so every attribute of every loaded
``mackey`` module that holds the original object is replaced.

Two kinds of wrapper:

* a span wrapper records (operation id, span id, parent id, name, start,
  end, self time) for one call; self time is the duration minus the time
  covered by child spans and by the counted calls below it;
* a counting wrapper, for functions called hundreds of thousands of times
  (``lr_coefficient``, ``partitions_of``, ``syt_count``), keeps a call count
  and, for ``lr_coefficient``, its time and nonzero results, instead of a
  span per call.

Wrappers record only while an operation is being timed, so the
benchmark's own input preparation and output checks leave no trace. Time
the tracer spends counting the nonzeros fed to ``rref`` is taken off the
clock of every open span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from statistics import median

PHASES = ("build_tensor_module", "traceless_subspace", "traceless_dimension",
          "young_project", "socle_filtration_parabolic", "constituent_count",
          "is_essential_filtration")

# (module, function) pairs traced with one span per call.
SPANNED = ([("symfunc", "coproduct"), ("symfunc", "schur_product"),
            ("socle", "socle_layers"), ("socle", "tensor_length"),
            ("socle", "decompose_mixed_tensor"), ("linalg", "rref"),
            ("linalg", "nullspace")]
           + [("brute", phase) for phase in PHASES])

# (module, function) pairs traced by count only.
COUNTED = [("partitions", "partitions_of"), ("partitions", "syt_count"),
           ("symfunc", "lr_coefficient")]

# name, unit, better, and the workloads that must exercise it (README.md
# says which end-to-end metric each should move).
LAYER_METRICS = [
    ("symfunc.lr_coefficient.calls", "count", "lower", ("socle", "product")),
    ("symfunc.lr_coefficient.nonzero_share", "ratio", "higher", ("socle", "product")),
    ("symfunc.lr_coefficient.s", "s", "lower", ("socle", "product")),
    ("symfunc.coproduct.self_s", "s", "lower", ("socle",)),
    ("symfunc.schur_product.self_s", "s", "lower", ("product",)),
    ("socle.socle_layers.self_s", "s", "lower", ("socle",)),
    ("partitions.partitions_of.calls", "count", "lower", ("product", "length")),
    ("partitions.syt_count.calls", "count", "lower", ("length",)),
    ("socle.tensor_length.s", "s", "lower", ("length",)),
    ("socle.decompose_mixed_tensor.s", "s", "lower", ("length",)),
    ("socle.decompose_mixed_tensor.terms", "count", "lower", ("length",)),
    ("linalg.rref.calls", "count", "lower", ("referee",)),
    ("linalg.rref.s", "s", "lower", ("referee",)),
    ("linalg.rref.rows_in", "count", "lower", ("referee",)),
    ("linalg.rref.nonzeros_in", "count", "lower", ("referee",)),
    ("linalg.rref.rank_out", "count", "lower", ("referee",)),
    ("linalg.rref.useful_share", "ratio", "higher", ("referee",)),
    ("linalg.nullspace.calls", "count", "lower", ("referee",)),
    ("linalg.nullspace.s", "s", "lower", ("referee",)),
    ("linalg.SparseMatrix.to_dense_rows.s", "s", "lower", ("referee",)),
] + [
    (f"brute.{phase}.{kind}", unit, "lower", ("referee",))
    for phase in PHASES for kind, unit in (("calls", "count"), ("s", "s"))
] + [
    ("brute.ExplicitModule.action.builds", "count", "lower", ("referee",)),
    ("brute.ExplicitModule.action.s", "s", "lower", ("referee",)),
]

ACTION = "brute.ExplicitModule.action"
TO_DENSE = "linalg.SparseMatrix.to_dense_rows"


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.op: int | None = None  # id of the operation being timed
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end, self)
        self.counts: Counter = Counter()
        self._cells: dict[str, list[int]] = {}  # call counts of the hottest functions
        self.seconds: Counter = Counter()  # time of counted calls
        self._stack: list[list] = []  # open spans: [id, name, start, child time]
        self._next_id = 0
        self._paused = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = self.clock()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((self.op, span_id, parent[0] if parent else None,
                           name, start, end, duration - child))
        return duration

    def _charge(self, seconds: float) -> None:
        """A counted call below the open span: not part of its self time."""
        if self._stack:
            self._stack[-1][3] += seconds

    def span(self, name: str, fn, measure=None):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                if measure is None:
                    return fn(*args, **kwargs)
                return measure(fn, args, kwargs)
            finally:
                self._close(frame)
        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        cell = self._cells.setdefault(name + ".calls", [0])

        def counted(*args, **kwargs):
            if self.op is not None:
                cell[0] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def count_lr(self, name: str, fn):
        def counted(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self.counts[name + ".calls"] += 1
            self.counts[name + ".nonzero"] += value != 0
            self.seconds[name] += elapsed
            self._charge(elapsed)
            return value
        counted.__wrapped__ = fn
        return counted

    def _measure_rref(self, fn, args, kwargs):
        rows = [row if isinstance(row, list) else list(row) for row in args[0]]
        pause = time.perf_counter()
        self.counts["linalg.rref.rows_in"] += len(rows)
        self.counts["linalg.rref.nonzeros_in"] += sum(
            1 for row in rows for x in row if x)
        self._paused += time.perf_counter() - pause
        echelon, pivots = fn(rows, *args[1:], **kwargs)
        self.counts["linalg.rref.rank_out"] += len(pivots)
        return echelon, pivots

    def _measure_terms(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counts["socle.decompose_mixed_tensor.terms"] += len(out)
        return out

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "mackey" and not name.startswith("mackey."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function and method of the loaded package."""
        import mackey.brute as brute
        import mackey.linalg as linalg

        modules = {name: sys.modules["mackey." + name]
                   for name in ("partitions", "symfunc", "socle", "linalg", "brute")}
        measures = {("linalg", "rref"): self._measure_rref,
                    ("socle", "decompose_mixed_tensor"): self._measure_terms}
        for mod, fn_name in SPANNED:
            original = getattr(modules[mod], fn_name)
            self._replace_everywhere(original, self.span(
                f"{mod}.{fn_name}", original, measures.get((mod, fn_name))))
        for mod, fn_name in COUNTED:
            original = getattr(modules[mod], fn_name)
            wrap = self.count_lr if fn_name == "lr_coefficient" else self.count
            self._replace_everywhere(original, wrap(f"{mod}.{fn_name}", original))

        to_dense = linalg.SparseMatrix.to_dense_rows
        self._restore.append((linalg.SparseMatrix, "to_dense_rows", to_dense))
        linalg.SparseMatrix.to_dense_rows = self.span(TO_DENSE, to_dense)

        # Matrix builds happen on a cache miss inside ExplicitModule.action,
        # through the builder each module is constructed with; tracing the
        # builder counts the lazy builds of restricted and quotient modules.
        init = brute.ExplicitModule.__init__
        tracer = self

        def traced_init(module, dimension, rank_n, builder, *args, **kwargs):
            init(module, dimension, rank_n, tracer.span(ACTION, builder), *args, **kwargs)

        self._restore.append((brute.ExplicitModule, "__init__", init))
        brute.ExplicitModule.__init__ = traced_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def _all_counts(self) -> Counter:
        counts = Counter(self.counts)
        counts.update({name: cell[0] for name, cell in self._cells.items()})
        return counts

    def snapshot(self) -> tuple[int, Counter, Counter]:
        """Marks the start of a round: pass to ``round_metrics`` at its end."""
        return len(self.spans), self._all_counts(), Counter(self.seconds)

    def round_metrics(self, mark: tuple[int, Counter, Counter]) -> dict[str, float]:
        """Every per-layer metric over the spans and counts since ``mark``."""
        first, counts0, seconds0 = mark
        counts = self._all_counts() - counts0
        seconds = self.seconds - seconds0
        spans = self.spans[first:]
        names = {s[1]: s[3] for s in spans}
        parents = {s[1]: s[2] for s in spans}

        def nested_in_same_name(span) -> bool:
            parent = span[2]
            while parent in names:
                if names[parent] == span[3]:
                    return True
                parent = parents[parent]
            return False

        calls: Counter = Counter()
        inclusive: Counter = Counter()
        own: Counter = Counter()
        for span in spans:
            name = span[3]
            calls[name] += 1
            own[name] += span[6]
            if not nested_in_same_name(span):
                inclusive[name] += span[5] - span[4]

        lr = "symfunc.lr_coefficient"
        rows_in = counts["linalg.rref.rows_in"]
        values = {
            lr + ".calls": counts[lr + ".calls"],
            lr + ".nonzero_share": (counts[lr + ".nonzero"] / counts[lr + ".calls"]
                                    if counts[lr + ".calls"] else 0.0),
            lr + ".s": seconds[lr],
            "symfunc.coproduct.self_s": own["symfunc.coproduct"],
            "symfunc.schur_product.self_s": own["symfunc.schur_product"],
            "socle.socle_layers.self_s": own["socle.socle_layers"],
            "partitions.partitions_of.calls": counts["partitions.partitions_of.calls"],
            "partitions.syt_count.calls": counts["partitions.syt_count.calls"],
            "socle.tensor_length.s": inclusive["socle.tensor_length"],
            "socle.decompose_mixed_tensor.s": inclusive["socle.decompose_mixed_tensor"],
            "socle.decompose_mixed_tensor.terms":
                counts["socle.decompose_mixed_tensor.terms"],
            "linalg.rref.calls": calls["linalg.rref"],
            "linalg.rref.s": inclusive["linalg.rref"],
            "linalg.rref.rows_in": rows_in,
            "linalg.rref.nonzeros_in": counts["linalg.rref.nonzeros_in"],
            "linalg.rref.rank_out": counts["linalg.rref.rank_out"],
            "linalg.rref.useful_share": (counts["linalg.rref.rank_out"] / rows_in
                                         if rows_in else 0.0),
            "linalg.nullspace.calls": calls["linalg.nullspace"],
            "linalg.nullspace.s": inclusive["linalg.nullspace"],
            TO_DENSE + ".s": inclusive[TO_DENSE],
            ACTION + ".builds": calls[ACTION],
            ACTION + ".s": inclusive[ACTION],
        }
        for phase in PHASES:
            values[f"brute.{phase}.calls"] = calls["brute." + phase]
            values[f"brute.{phase}.s"] = inclusive["brute." + phase]
        return values


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the median over rounds (counts repeat exactly)."""
    return {name: median(r[name] for r in rounds) for name, *_ in LAYER_METRICS}
