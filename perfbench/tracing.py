"""Per-layer tracing of ``sl2cohom``, installed from outside the program.

``Tracer.installed()`` rebinds each traced function in every ``sl2cohom``
module namespace that holds it (the defining module and every module that
imported the name), so internal calls are traced too, and restores the
originals on exit.  Each call records a span (id, name, start, end, parent
span, config index) in memory; nothing is written until ``write``.

Self time is a span's duration minus the time its child calls cover.  A
call's own bookkeeping (counters below) is also excluded from its parent's
self time, so only ``total_s`` of enclosing spans carries tracer cost.

``Polynomial.__mul__`` and ``__add__`` run over 10^5 times per oracle pass, so
they are timed and counted like spans and subtracted from their parent's
self time, but not kept one record per call.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Optional

#: (module, function) pairs traced as spans, bottom layer last.
SPAN_TARGETS = (
    ("sweep", "evaluate_row"),
    ("closedform", "classify"),
    ("closedform", "dim_h2_closed_form"),
    ("closedform", "dim_h2_summary_table"),
    ("reduced", "dim_h2_via_system"),
    ("reduced", "build_system"),
    ("reduced", "cocycle_basis"),
    ("reduced", "solve_coboundary"),
    ("reduced", "coboundary_reduced"),
    ("linalg", "rank"),
    ("linalg", "sparse_rank"),
    ("linalg", "solve"),
    ("linalg", "kernel_basis"),
    ("linalg", "column_space_echelon"),
    ("cecomplex", "brute_force_h2"),
    ("cecomplex", "weight_block_basis"),
    ("cecomplex", "block_matrix"),
    ("operators", "act_on_operator"),
)

#: (module, class, method) traced as counted calls without span records.
COUNTED_METHODS = (
    ("polynomials", "Polynomial", "__mul__"),
    ("polynomials", "Polynomial", "__add__"),
)

Hook = Callable[["Tracer", dict, dict, Any], None]


def _matrix_counts(stat: dict, matrix: Any) -> None:
    stat["cells"] += matrix.rows * matrix.cols
    stat["nnz"] += sum(1 for row in matrix.entries for v in row if v)


def _build_system_hook(tracer: "Tracer", stat: dict, args: dict, result: Any) -> None:
    _matrix_counts(stat, result.matrix)


def _rank_hook(tracer: "Tracer", stat: dict, args: dict, result: Any) -> None:
    _matrix_counts(stat, args["matrix"])


def _sparse_rank_hook(tracer: "Tracer", stat: dict, args: dict, result: Any) -> None:
    vectors = args["vectors"]
    stat["vectors"] += len(vectors)
    stat["nnz"] += sum(len(v) for v in vectors)
    stat["rank"] += result


def _solve_coboundary_hook(tracer: "Tracer", stat: dict, args: dict, result: Any) -> None:
    stat["infeasible"] += result is None


def _brute_force_hook(tracer: "Tracer", stat: dict, args: dict, result: Any) -> None:
    stat["stable"] += bool(result.stable)


def _block_basis_hook(tracer: "Tracer", stat: dict, args: dict, result: Any) -> None:
    stat["elements"] += len(result)


def _block_matrix_hook(tracer: "Tracer", stat: dict, args: dict, result: Any) -> None:
    stat["columns"] += len(result)
    stat["nnz"] += sum(len(col) for col in result)
    source = args.get("source")
    if source is None:
        source = tracer.originals["cecomplex.weight_block_basis"](args["p"], args["tr"], args["w"])
    # Distinct within one config: caps c, c+1, c+2 rebuild shared columns.
    seen = tracer.config_columns
    before = len(seen)
    seen.update((args["p"], elem) for elem in source)
    stat["unique_columns"] += len(seen) - before


HOOKS: dict[str, Hook] = {
    "reduced.build_system": _build_system_hook,
    "reduced.solve_coboundary": _solve_coboundary_hook,
    "linalg.rank": _rank_hook,
    "linalg.sparse_rank": _sparse_rank_hook,
    "cecomplex.brute_force_h2": _brute_force_hook,
    "cecomplex.weight_block_basis": _block_basis_hook,
    "cecomplex.block_matrix": _block_matrix_hook,
}

_MISSING = object()


class Tracer:
    """Spans and per-name counters for one traced loop."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []
        self.stats: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self.originals: dict[str, Callable] = {}
        self.config: Optional[int] = None
        self.config_columns: set = set()
        self._stack: list[list] = []
        self._next_id = 0

    def set_config(self, index: int) -> None:
        """Attribute the following spans to config ``index``."""
        self.config = index
        self.config_columns = set()

    def _wrap(self, name: str, fn: Callable, keep_span: bool) -> Callable:
        tracer = self
        perf = time.perf_counter
        stat = self.stats[name]
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = None
            if keep_span:
                tracer._next_id += 1
                span_id = tracer._next_id
            frame = [0.0, span_id]
            stack.append(frame)
            result = _MISSING
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                stat["calls"] += 1
                stat["total_s"] += duration
                stat["self_s"] += duration - frame[0]
                if keep_span:
                    tracer.spans.append((span_id, name, start - tracer.origin,
                                         end - tracer.origin,
                                         None if parent is None else parent[1],
                                         tracer.config))
                if hook is not None and result is not _MISSING:
                    hook(tracer, stat, signature.bind(*args, **kwargs).arguments, result)
                if parent is not None:
                    parent[0] += perf() - start

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every traced name for the duration of the block."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "sl2cohom" or name.startswith("sl2cohom.")]
        patches: list[tuple[Any, str, Any]] = []
        try:
            for modname, attr in SPAN_TARGETS:
                name = f"{modname}.{attr}"
                original = getattr(sys.modules[f"sl2cohom.{modname}"], attr)
                self.originals[name] = original
                wrapper = self._wrap(name, original, keep_span=True)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            for modname, clsname, attr in COUNTED_METHODS:
                cls = getattr(sys.modules[f"sl2cohom.{modname}"], clsname)
                original = cls.__dict__[attr]
                patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{modname}.{clsname}.{attr}", original,
                                              keep_span=False))
            yield self
        finally:
            for obj, key, original in reversed(patches):
                setattr(obj, key, original)

    def layer_metrics(self, names: list[str]) -> dict[str, float]:
        """Values of ``<module>.<function>.<stat>`` names; 0 for a layer that never ran."""
        stats = self.stats
        derived = {
            "linalg.sparse_rank.rank_ratio": lambda: _ratio(
                stats["linalg.sparse_rank"]["rank"], stats["linalg.sparse_rank"]["vectors"]),
            "cecomplex.brute_force_h2.stable_ratio": lambda: _ratio(
                stats["cecomplex.brute_force_h2"]["stable"],
                stats["cecomplex.brute_force_h2"]["calls"]),
            "cecomplex.block_matrix.unique_column_ratio": lambda: _ratio(
                stats["cecomplex.block_matrix"]["unique_columns"],
                stats["cecomplex.block_matrix"]["columns"]),
            "closedform.total_s": lambda: sum(
                stat["total_s"] for span, stat in stats.items() if span.startswith("closedform.")),
        }
        out: dict[str, float] = {}
        for name in names:
            if name in derived:
                out[name] = derived[name]()
                continue
            span, key = name.rsplit(".", 1)
            if span not in stats:
                raise KeyError(f"{name}: {span} is not traced")
            out[name] = stats[span][key]
        return out

    def write(self, path: str, meta: dict) -> None:
        """JSON lines: the run's metadata, one line per span, then the counters."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "span_fields": [
                "id", "name", "start_s", "end_s", "parent", "config"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"stats": self.stats}, sort_keys=True) + "\n")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer never ran in this workload."""
    return num / den if den else 0.0
