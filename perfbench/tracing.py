"""Per-layer trace of semigraded, recorded from outside the package.

``Tracer`` wraps functions of the package's modules at run time, records
one span per call (name, parent span, start, end, counters), and puts
every original attribute back when it exits.  ``layer_metrics`` turns the
spans of one pass into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    t0: float
    t1: float = 0.0
    counts: dict = field(default_factory=dict)


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlaps between
    them are counted once.
    """
    covered = 0.0
    end = span.t0
    for a, b in sorted((max(c.t0, span.t0), min(c.t1, span.t1)) for c in children):
        a = max(a, end)
        if b > a:
            covered += b - a
            end = b
    return (span.t1 - span.t0) - covered


def _block_counts(result):
    blocks = result.blocks
    return {
        "blocks": len(blocks),
        "block_cells": sum(b.n_rows * b.n_cols for b in blocks),
        "rank": sum(b.rank for b in blocks),
        "rows": sum(b.n_rows for b in blocks),
        "unstable": sum("disagree" in b.certification for b in blocks),
    }


def _sparse_rows(rows):
    return {"rows": len(rows), "nnz": sum(len(r) for r in rows)}


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``module.attr`` ("Class.method" allowed).

    count_args sees the first positional argument before the call,
    count_result the return value; each gives counters for the span.
    """

    span: str
    module: str
    attr: str
    count_args: object = None
    count_result: object = None
    listify_arg: bool = False  # materialise an iterable first argument


PROBES = (
    Probe("graded_codim", "codim", "graded_codim", count_result=_block_counts),
    Probe("product_cache", "codim", "_product_cache",
          count_result=lambda r: {"entries": len(r)}),
    Probe("rank_modp", "codim", "_rank_mod_p",
          count_args=lambda m: {"cells": m.shape[0] * m.shape[1]}),
    Probe("rank_exact", "codim", "_rank_exact", count_args=_sparse_rows),
    Probe("multiplicity_exact", "cochar", "multiplicity_exact"),
    Probe("apply_symmetrizer", "cochar", "apply_symmetrizer"),
    Probe("is_graded_simple", "structure", "is_graded_simple"),
    Probe("operator_closure", "structure", "_operator_closure",
          count_result=lambda r: {"dim": len(r)}),
    Probe("rref", "linalg", "rref",
          count_args=lambda rows: {"cells": sum(len(r) for r in rows)}, listify_arg=True),
    Probe("maximize_phi", "asympt", "maximize_phi",
          count_result=lambda r: {"gap": r.certified_gap}),
    Probe("project", "asympt", "_Region.project"),
)

# metric name, unit, probes it needs; a metric whose probe found nothing
# to wrap is reported as absent
PER_LAYER = (
    ("codim.graded_codim_s", "s", ("graded_codim",)),
    ("codim.assembly_s", "s", ("graded_codim", "product_cache", "rank_modp", "rank_exact")),
    ("codim.product_cache_s", "s", ("graded_codim", "product_cache")),
    ("codim.product_cache_entries", "count", ("graded_codim", "product_cache")),
    ("codim.rank_modp_s", "s", ("rank_modp",)),
    ("codim.rank_modp_calls", "count", ("rank_modp",)),
    ("codim.rank_modp_cells", "count", ("rank_modp",)),
    ("codim.blocks", "count", ("graded_codim",)),
    ("codim.block_cells", "count", ("graded_codim",)),
    ("codim.rank_yield", "ratio", ("graded_codim",)),
    ("codim.unstable_blocks", "count", ("graded_codim",)),
    ("codim.rank_exact_s", "s", ("graded_codim", "rank_exact")),
    ("codim.rank_exact_rows", "count", ("graded_codim", "rank_exact")),
    ("cochar.multiplicity_exact_s", "s", ("multiplicity_exact",)),
    ("cochar.multiplicity_assembly_s", "s", ("multiplicity_exact", "product_cache", "rank_exact")),
    ("cochar.product_cache_s", "s", ("multiplicity_exact", "product_cache")),
    ("cochar.rank_exact_s", "s", ("multiplicity_exact", "rank_exact")),
    ("cochar.rank_exact_rows", "count", ("multiplicity_exact", "rank_exact")),
    ("cochar.rank_exact_nnz", "count", ("multiplicity_exact", "rank_exact")),
    ("cochar.apply_symmetrizer_s", "s", ("apply_symmetrizer",)),
    ("cochar.apply_symmetrizer_calls", "count", ("apply_symmetrizer",)),
    ("structure.is_graded_simple_s", "s", ("is_graded_simple",)),
    ("structure.operator_closure_s", "s", ("operator_closure",)),
    ("structure.operator_closure_dim", "count", ("operator_closure",)),
    ("linalg.rref_s", "s", ("rref",)),
    ("linalg.rref_calls", "count", ("rref",)),
    ("linalg.rref_cells", "count", ("rref",)),
    ("asympt.maximize_phi_s", "s", ("maximize_phi",)),
    ("asympt.maximize_phi_calls", "count", ("maximize_phi",)),
    ("asympt.project_s", "s", ("project",)),
    ("asympt.project_calls", "count", ("project",)),
    ("asympt.certified_gap_max", "phi", ("maximize_phi",)),
)

PACKAGE = "semigraded"

# spans that set the layer (codim or cochar) of the rank and cache calls below them
_CONTEXTS = {"graded_codim": "codim", "multiplicity_exact": "cochar"}


def _resolve(owner, attr):
    """(object holding the last name, last name) for a dotted attribute."""
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Context manager that wraps every probe of ``PROBES`` in the package.

    A module-level function is wrapped wherever the package binds it, so
    ``from .codim import _rank_exact`` in another module is traced too.
    Probes whose attribute does not exist are listed in ``absent``.
    """

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, probe, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe.listify_arg and args:
                args = (list(args[0]),) + args[1:]
            span = Span(probe.span, stack[-1] if stack else None, 0.0)
            if probe.count_args:
                span.counts.update(probe.count_args(args[0] if args else next(iter(kwargs.values()))))
            stack.append(len(spans))
            spans.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if probe.count_result:
                span.counts.update(probe.count_result(result))
            return result

        return traced

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.startswith(PACKAGE + ".")]
        try:
            for probe in self.probes:
                try:
                    owner, name = _resolve(importlib.import_module(f"{PACKAGE}.{probe.module}"),
                                           probe.attr)
                    original = getattr(owner, name)
                except (ImportError, AttributeError):
                    self.absent.add(probe.span)
                    continue
                wrapper = self._wrap(probe, original)
                holders = [owner] + [m for m in modules
                                     if m is not owner and getattr(m, name, None) is original]
                for holder in holders:
                    self._saved.append((holder, name, original))
                    setattr(holder, name, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)


def layer_metrics(spans, absent=()):
    """Per-layer metrics of one traced pass: {name: value}, absent ones left out."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def ancestors(s):
        while s.parent is not None:
            s = spans[s.parent]
            yield s

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    rank = rows = 0
    for i, s in enumerate(spans):
        up = list(ancestors(s))
        if any(a.name == s.name for a in up):
            continue  # its time is inside the outer call of the same function
        layer = next((_CONTEXTS[a.name] for a in up if a.name in _CONTEXTS), None)
        dt = s.t1 - s.t0
        c = s.counts
        if s.name == "graded_codim":
            m["codim.graded_codim_s"] += dt
            m["codim.assembly_s"] += self_time(s, children.get(i, ()))
            m["codim.blocks"] += c["blocks"]
            m["codim.block_cells"] += c["block_cells"]
            m["codim.unstable_blocks"] += c["unstable"]
            rank += c["rank"]
            rows += c["rows"]
        elif s.name == "multiplicity_exact":
            m["cochar.multiplicity_exact_s"] += dt
            m["cochar.multiplicity_assembly_s"] += self_time(s, children.get(i, ()))
        elif s.name == "product_cache" and layer:
            m[f"{layer}.product_cache_s"] += dt
            if layer == "codim":
                m["codim.product_cache_entries"] += c["entries"]
        elif s.name == "rank_modp":
            m["codim.rank_modp_s"] += dt
            m["codim.rank_modp_calls"] += 1
            m["codim.rank_modp_cells"] += c["cells"]
        elif s.name == "rank_exact" and layer:
            m[f"{layer}.rank_exact_s"] += dt
            m[f"{layer}.rank_exact_rows"] += c["rows"]
            if layer == "cochar":
                m["cochar.rank_exact_nnz"] += c["nnz"]
        elif s.name == "apply_symmetrizer":
            m["cochar.apply_symmetrizer_s"] += dt
            m["cochar.apply_symmetrizer_calls"] += 1
        elif s.name == "is_graded_simple":
            m["structure.is_graded_simple_s"] += dt
        elif s.name == "operator_closure":
            m["structure.operator_closure_s"] += dt
            m["structure.operator_closure_dim"] += c["dim"]
        elif s.name == "rref":
            m["linalg.rref_s"] += dt
            m["linalg.rref_calls"] += 1
            m["linalg.rref_cells"] += c["cells"]
        elif s.name == "maximize_phi":
            m["asympt.maximize_phi_s"] += dt
            m["asympt.maximize_phi_calls"] += 1
            m["asympt.certified_gap_max"] = max(m["asympt.certified_gap_max"], c["gap"])
        elif s.name == "project":
            m["asympt.project_s"] += dt
            m["asympt.project_calls"] += 1
    m["codim.rank_yield"] = rank / rows if rows else 0.0
    return {name: m[name] for name, _, needs in PER_LAYER
            if not any(p in absent for p in needs)}
