"""Tests of the benchmark's own trace arithmetic, tracer, clock probe and
declaration.

    python3 -m pytest -q perfbench
"""

import json
import signal
import time
from pathlib import Path

from clock import SpeedProbe
from run import END_TO_END, RUN_LAYER
from tracing import PER_LAYER, PROBES, Probe, Span, Tracer, layer_metrics, self_time
from workloads import WORKLOADS, use_source

ROOT = Path(__file__).resolve().parent.parent
use_source()


def test_self_time_subtracts_covered_child_intervals_once():
    parent = Span("p", None, 0.0, 10.0)
    children = [
        Span("a", 0, 1.0, 3.0),
        Span("b", 0, 2.0, 4.0),    # overlaps a: [1, 4] counts once
        Span("c", 0, 6.0, 7.0),
        Span("d", 0, 9.0, 12.0),   # clipped to the parent's end
        Span("e", 0, 4.5, 4.5),    # empty
    ]
    assert self_time(parent, children) == 10.0 - (3.0 + 1.0 + 1.0)
    assert self_time(parent, []) == 10.0


def test_layer_metrics_on_a_synthetic_span_tree():
    spans = [
        Span("graded_codim", None, 0.0, 10.0,
             {"blocks": 2, "block_cells": 30, "rank": 3, "rows": 12, "unstable": 0}),
        Span("product_cache", 0, 0.0, 1.0, {"entries": 7}),
        Span("rank_modp", 0, 2.0, 4.0, {"cells": 20}),
        Span("rank_modp", 0, 5.0, 6.0, {"cells": 10}),
        Span("multiplicity_exact", None, 20.0, 30.0),
        Span("product_cache", 4, 20.0, 21.0, {"entries": 99}),
        Span("rank_exact", 4, 25.0, 29.0, {"rows": 5, "nnz": 40}),
        Span("rref", None, 40.0, 41.0, {"cells": 6}),
        Span("rref", 7, 40.2, 40.4, {"cells": 4}),  # nested: inside the outer call
    ]
    m = layer_metrics(spans)
    assert m["codim.graded_codim_s"] == 10.0
    assert m["codim.assembly_s"] == 10.0 - 1.0 - 2.0 - 1.0
    assert m["codim.product_cache_s"] == 1.0
    assert m["codim.product_cache_entries"] == 7
    assert (m["codim.rank_modp_s"], m["codim.rank_modp_calls"], m["codim.rank_modp_cells"]) == (3.0, 2, 30)
    assert m["codim.rank_yield"] == 3 / 12
    assert m["codim.rank_exact_s"] == 0.0
    assert m["cochar.multiplicity_assembly_s"] == 10.0 - 1.0 - 4.0
    assert m["cochar.product_cache_s"] == 1.0
    assert (m["cochar.rank_exact_s"], m["cochar.rank_exact_rows"], m["cochar.rank_exact_nnz"]) == (4.0, 5, 40)
    assert (m["linalg.rref_s"], m["linalg.rref_calls"], m["linalg.rref_cells"]) == (1.0, 1, 6)


def test_tracer_wraps_every_binding_and_restores_it():
    from semigraded import asympt, cochar, codim
    from semigraded.gralgebra import paper_catalog
    from semigraded.cochar import Partition
    originals = (codim._rank_exact, cochar._rank_exact, cochar._product_cache,
                 asympt._Region.project)
    t3 = paper_catalog("thm_T3_fractional")
    with Tracer() as tracer:
        assert cochar._rank_exact is not originals[1]
        assert cochar.multiplicity_exact(t3, Partition((2, 1))) >= 0
    assert (codim._rank_exact, cochar._rank_exact, cochar._product_cache,
            asympt._Region.project) == originals
    assert not tracer.absent
    m = layer_metrics(tracer.spans)
    assert m["cochar.rank_exact_rows"] > 0 and m["codim.rank_exact_rows"] == 0
    assert m["cochar.multiplicity_exact_s"] >= m["cochar.rank_exact_s"] > 0


def test_missing_probe_is_reported_absent():
    probes = (Probe("rank_modp", "codim", "_no_such_rank_routine"),
              Probe("project", "asympt", "_Region.no_such_method"),
              next(p for p in PROBES if p.span == "rref"))
    from semigraded import linalg
    original = linalg.rref
    with Tracer(probes=probes) as tracer:
        linalg.matrix_rank([(1, 2), (2, 4)])
    assert linalg.rref is original
    assert tracer.absent == {"rank_modp", "project"}
    m = layer_metrics(tracer.spans, tracer.absent)
    assert "codim.rank_modp_s" not in m and "codim.assembly_s" not in m
    assert "asympt.project_calls" not in m
    assert m["linalg.rref_calls"] == 1 and m["linalg.rref_cells"] == 4


def test_trace_split_of_c5_t1_modular():
    """The traced split of c_5(thm_T1_fractional) against the cProfile
    profile, which gives block assembly about 85 % and rank mod p about 13 %.

    cProfile charges its per-call cost to every generator step and dict.get
    of the assembly loop: on a 2-core Xeon it stretches graded_codim from
    4.3 s to 11.2 s while _rank_mod_p stays near 1.3 s.  Without it the
    trace measures about 69 % assembly and 30 % rank, so the bands are
    wide, and assembly must stay the larger part.
    """
    from semigraded import codim
    from semigraded.gralgebra import paper_catalog
    t1 = paper_catalog("thm_T1_fractional")
    with Tracer() as tracer:
        assert codim.graded_codim(t1, 5).value == 2746
    m = layer_metrics(tracer.spans)
    total = m["codim.graded_codim_s"]
    assembly, rank = m["codim.assembly_s"] / total, m["codim.rank_modp_s"] / total
    assert 0.5 <= assembly <= 0.9, assembly
    assert 0.1 <= rank <= 0.45, rank
    assert rank < assembly
    assert abs(assembly + rank + m["codim.product_cache_s"] / total - 1.0) < 1e-9


def test_speed_probe_samples_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(i * i for i in range(1000))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(probe.samples) >= 5  # entry, exit and about ten alarms
    assert probe.factor() > 0


def test_benchmark_json_declares_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in PER_LAYER] + RUN_LAYER
