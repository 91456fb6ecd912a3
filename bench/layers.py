"""Per-layer metrics from traced operations and from `python -X importtime`.

Unless a name says otherwise, a count or a time is per traced operation:
its total over the traced round divided by the number of operations.
`*_us` metrics are per call, `.dNN` metrics belong to the one degree named,
`*_share` metrics are ratios with the base named in baseline.json, and
`max_digits`, `matrix_terms` and `cache_bytes` are the largest value seen.
A layer the workload does not reach reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List

IMPORT_LAYERS = ("chow", "poly", "potentials", "recursion", "contact", "verify")
POLY = ("mul", "partial", "add_scaled")


def _ancestors(spans: List[dict], i: int) -> Iterable[dict]:
    p = spans[i]["parent"]
    while p is not None:
        yield spans[p]
        p = spans[p]["parent"]


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _outermost(spans: List[dict], names, within: str = None) -> List[dict]:
    """Spans with one of the names and no ancestor with one of them, below a
    span named `within` when that is given."""
    out = []
    for i, s in enumerate(spans):
        if s["name"] not in names:
            continue
        above = [a["name"] for a in _ancestors(spans, i)]
        if not names.intersection(above) and (within is None or within in above):
            out.append(s)
    return out


def span_metrics(traces: List[List[dict]], stdout_bytes: List[int]) -> Dict[str, float]:
    """Layer metrics of the traced operations, one span list per operation."""
    n = len(traces)
    spans = [s for trace in traces for s in trace]
    named: Dict[str, List[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def calls(name: str) -> int:
        return len(named.get(name, ()))

    def total_ms(name: str) -> float:
        return 1e3 * sum(_dur(s) for t in traces for s in _outermost(t, {name}))

    def per_call_us(name: str) -> float:
        got = named.get(name, ())
        return 1e6 * sum(_dur(s) for s in got) / len(got) if got else 0.0

    def hot(name: str):
        agg = [s["hot"].get(name, (0, 0.0)) for s in spans]
        return sum(a[0] for a in agg), 1e3 * sum(a[1] for a in agg)

    def attr(name: str, key: str) -> List:
        return [s["attrs"][key] for s in named.get(name, ()) if key in s["attrs"]]

    def rhs_at(d: int):
        return [s for s in named.get("recursion.recursion_rhs", ()) if s["attrs"].get("d") == d]

    m: Dict[str, float] = {}
    m["cli.main_self_ms"] = 1e3 * sum(_dur(s) - s["covered"]
                                      for s in named.get("cli.main", ())) / n
    m["cli.stdout_bytes"] = sum(stdout_bytes) / n

    parses = named.get("chow.parse_class_expr", ())
    m["chow.parse_class_expr_calls"] = calls("chow.parse_class_expr") / n
    m["chow.parse_class_expr_us"] = per_call_us("chow.parse_class_expr")
    m["chow.parse_rejects"] = sum("error" in s["attrs"] for s in parses) / n
    m["chow.mul_classes_calls"] = hot("chow.mul_classes")[0] / n
    m["chow.integrate_ms"] = total_ms("chow.integrate") / n

    for name in POLY:
        count, ms = hot(f"poly.{name}")
        m[f"poly.{name}_calls"] = count / n
        m[f"poly.{name}_ms"] = ms / n

    builds = named.get("potentials.build_gluing_matrix", ())
    m["potentials.build_gluing_matrix_calls"] = len(builds) / n
    m["potentials.build_gluing_matrix_ms"] = total_ms("potentials.build_gluing_matrix") / n
    m["potentials.matrix_terms"] = max(
        [s["attrs"]["terms"] for s in builds if s["attrs"].get("cap") == 2], default=0)

    m["recursion.rhs_ms"] = total_ms("recursion.recursion_rhs") / n
    for d in (20, 40):
        at = rhs_at(d)
        m[f"recursion.rhs_ms.d{d}"] = 1e3 * sum(map(_dur, at)) / len(at) if at else 0.0
    at40 = rhs_at(40)
    m["recursion.poly_calls.d40"] = (
        sum(s["hot"].get(f"poly.{p}", (0, 0))[0] for s in at40 for p in POLY) / len(at40)
        if at40 else 0.0)
    m["recursion.extract_ms"] = total_ms("recursion.extract_invariants") / n
    m["recursion.tail_from_weight2_ms"] = total_ms("recursion.tail_from_weight2") / n
    m["recursion.max_digits"] = max(attr("recursion.compute_up_to", "max_digits"), default=0)
    m["recursion.tail_from_invariants_ms"] = total_ms("recursion.tail_from_invariants") / n
    m["recursion.load_table_ms"] = total_ms("recursion.load_table") / n
    m["recursion.save_table_ms"] = total_ms("recursion.save_table") / n
    rewrites = attr("recursion.save_table", "rewrite")
    m["recursion.saves_per_op"] = calls("recursion.save_table") / n
    m["recursion.cache_rewrite_share"] = sum(rewrites) / len(rewrites) if rewrites else 0.0
    m["recursion.cache_bytes"] = max(attr("recursion.save_table", "bytes"), default=0)

    counts = named.get("contact.mixed_count", ())
    m["contact.mixed_count_calls"] = len(counts) / n
    m["contact.mixed_count_us"] = per_call_us("contact.mixed_count")
    m["contact.unsupported_share"] = (
        sum(s["attrs"].get("error") == "UnsupportedProfileError" for s in counts) / len(counts)
        if counts else 0.0)

    selftest_s = sum(_dur(s) for t in traces for s in _outermost(t, {"verify.run_selftest"}))
    computed_s = sum(_dur(s) for t in traces
                     for s in _outermost(t, {"recursion.compute_up_to"}, "verify.run_selftest"))
    children_s = sum(_dur(s) for t in traces for s in _outermost(
        t, {"recursion.compute_up_to", "potentials.build_gluing_matrix"}, "verify.run_selftest"))
    m["verify.run_selftest_self_ms"] = 1e3 * (selftest_s - children_s) / n
    m["verify.compute_share"] = computed_s / selftest_s if selftest_s else 0.0
    m["verify.checks_run"] = sum(attr("verify.run_selftest", "checks")) / n
    m["verify.checks_failed"] = sum(attr("verify.run_selftest", "failed")) / n
    m["verify.kontsevich_ms"] = total_ms("verify.kontsevich") / n
    return m


def parse_importtime(stderr: str) -> Dict[str, float]:
    """`{layer}.import_ms` for each semple2 module, and `cli.import_ms` for all.

    A module's time is its cumulative import time less that of the semple2
    modules it imports first, so the per-module figures add up; standard
    library modules a module pulls in first count towards it.
    """
    collected: Dict[int, List[dict]] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, field = line[len("import time:"):].split("|", 2)
        if not cum.strip().isdigit():
            continue
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        node = {"name": field.strip(), "cum": int(cum), "children": collected.pop(depth + 1, [])}
        collected.setdefault(depth, []).append(node)

    def nearest_semple2(nodes) -> List[dict]:
        out = []
        for node in nodes:
            out += [node] if node["name"].startswith("semple2") else nearest_semple2(node["children"])
        return out

    def walk(nodes, acc):
        for node in nodes:
            if node["name"].startswith("semple2"):
                inner = nearest_semple2(node["children"])
                acc[node["name"]] = node["cum"] - sum(c["cum"] for c in inner)
            walk(node["children"], acc)
        return acc

    roots = [node for depth in sorted(collected) for node in collected[depth]]
    own = walk(roots, {})
    out = {f"{layer}.import_ms": own.get(f"semple2.{layer}", 0) / 1e3 for layer in IMPORT_LAYERS}
    out["cli.import_ms"] = sum(node["cum"] for node in nearest_semple2(roots)) / 1e3
    return out


def median_of(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
