"""Spans around calls into semple2's public functions, installed from outside.

`install` replaces every binding of each traced function in every loaded
`semple2` module: `recursion` from-imports `mul`, `partial` and
`add_scaled`, and `cli` binds `compute_up_to`, `mixed_count`,
`parse_class_expr` and `run_selftest` by name, so a wrapper on the defining
module alone would miss most calls.  A traced name that a later version of
semple2 no longer has is skipped; its metrics then read 0.

Each spanned call records name, start, end and parent.  The hot calls
(`poly.mul`, `poly.partial`, `poly.add_scaled`, `chow.mul_classes`) are
too many to keep one span each (`compute_up_to(30)` makes ~85k), so they
are added up per parent span as [calls, seconds].  A hot call made inside
another hot call counts as part of the outer one.  A span's `covered` is
the time its direct children took, including the wrappers' own
bookkeeping, so self time = end - start - covered leaves the tracing cost
out of the parent.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

SPANNED = {
    "semple2.cli": ("main",),
    "semple2.chow": ("parse_class_expr", "integrate", "to_i_basis"),
    "semple2.potentials": ("build_gluing_matrix",),
    "semple2.recursion": ("compute_up_to", "recursion_rhs", "tail_from_weight2",
                          "extract_invariants", "tail_from_invariants",
                          "load_table", "save_table"),
    "semple2.contact": ("mixed_count", "contact_number", "contact_formula"),
    "semple2.verify": ("run_selftest", "kontsevich"),
}
HOT = {
    "semple2.poly": ("mul", "partial", "add_scaled"),
    "semple2.chow": ("mul_classes",),
}


class Span:
    __slots__ = ("index", "name", "parent", "start", "end", "covered", "attrs", "hot")

    def __init__(self, index: Optional[int], name: str, parent: Optional[int]):
        self.index = index
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.covered = 0.0
        self.attrs: Dict[str, object] = {}
        self.hot: Dict[str, List[float]] = {}

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "parent": self.parent, "start": self.start,
                "end": self.end, "covered": self.covered, "attrs": self.attrs,
                "hot": self.hot}


def _file_bytes(path) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def _save_before(args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return path, _file_bytes(path)


def _save_after(state, result) -> Dict[str, object]:
    path, old = state
    new = _file_bytes(path) or b""
    return {"bytes": len(new), "rewrite": old == new}


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs.get(key)


#: attributes taken from arguments before a call: name -> f(args, kwargs)
BEFORE: Dict[str, Callable] = {
    "save_table": _save_before,
    "recursion_rhs": lambda a, k: _first_arg(a, k, "d"),
    "build_gluing_matrix": lambda a, k: _first_arg(a, k, "cap"),
}
#: attributes taken from results: name -> f(before_state, result) -> attrs
AFTER: Dict[str, Callable] = {
    "save_table": _save_after,
    "recursion_rhs": lambda d, r: {"d": d},
    "build_gluing_matrix": lambda cap, m: {
        "cap": cap, "terms": sum(len(p) for p in m.entries.values())},
    "compute_up_to": lambda _, t: {"max_digits": max(
        len(str(abs(v))) for col in t.values.values() for v in col.values())},
    "run_selftest": lambda _, reports: {
        "checks": len(reports), "failed": sum(not r.passed for r in reports)},
}


class Tracer:
    """In-memory spans of one traced process."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.root = Span(None, "<root>", None)
        self.in_hot = False

    def spanned(self, name: str, fn: Callable) -> Callable:
        before = BEFORE.get(name.split(".")[-1])
        after = AFTER.get(name.split(".")[-1])

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            parent = self.stack[-1] if self.stack else self.root
            span = Span(len(self.spans), name, parent.index)
            self.spans.append(span)
            state = before(args, kwargs) if before else None
            self.stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self.stack.pop()
                parent.covered += span.end - t_in
            if after:
                t_after = perf_counter()
                try:
                    span.attrs.update(after(state, result))
                except Exception:
                    # a result shape this tracer does not know: no attribute
                    pass
                parent.covered += perf_counter() - t_after
            return result

        return wrapper

    def hot(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self.in_hot:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            self.in_hot = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.in_hot = False
                parent = self.stack[-1] if self.stack else self.root
                agg = parent.hot.get(name)
                if agg is None:
                    parent.hot[name] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt
                parent.covered += perf_counter() - t_in

        return wrapper

    def export(self) -> List[Dict[str, object]]:
        return [s.to_dict() for s in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap every binding of the traced functions in the loaded semple2 modules."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "semple2" or n.startswith("semple2."))]
    for table, make in ((SPANNED, tracer.spanned), (HOT, tracer.hot)):
        for module_name, names in table.items():
            home = sys.modules.get(module_name)
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                layer = module_name.split(".")[-1]
                wrapper = make(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
