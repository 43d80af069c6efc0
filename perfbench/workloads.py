"""The benchmark's workloads: the catalog algebras each one builds during
set-up, its task list, and the reference values every output is checked
against.

semigraded is imported only inside functions, so that importing this
module costs nothing and ``setup`` can time the package import itself.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"

LABEL_MODULAR = "modular lower bound, stable across >= 2 primes"
LABEL_EXACT = "exact"

CODIM_REFERENCE = {
    "thm_T1_fractional": (2, 8, 48, 359, 2746),
    "thm_T2_fractional": (2, 8, 48, 359, 2746),
    "thm_T3_fractional": (2, 8, 45, 305, 2136),
    "mk_column_graded(2)": (2, 8, 42, 192, 800, 3180),
}
# exact multiplicities of thm_T3_fractional, keyed by shape
MULTIPLICITY_REFERENCE = {
    (4,): 15, (3, 1): 41, (2, 2): 25, (2, 1, 1): 36, (1, 1, 1, 1): 9,
    (3, 2): 98, (2, 1, 1, 1): 49,
}
BATTERY_CHECKS = (
    "semigroup-classification", "radical-gradedness", "graded-splitting",
    "graded-simplicity", "codim-t1-t2-agreement", "codim-c1-values",
    "phi-maximization", "witness-nonvanishing", "alternation-vanishing",
    "theta-window", "exponent-formula", "hook-oracles",
    "multiplicity-cross-check",
)


class SourceMissing(RuntimeError):
    """The checkout holds no src/semigraded package to measure."""


@dataclass
class Outcome:
    task: str
    error: str | None  # None when the output matched the reference
    seconds: float


@dataclass(frozen=True)
class Workload:
    name: str
    catalog: tuple  # (catalog name, *params) of every algebra the tasks use
    run_pass: Callable  # (algebras, seed) -> list[Outcome]
    uses_seed: bool


def catalog_key(name, *params):
    """The key verify.run_battery looks algebras up by."""
    return name if not params else f"{name}({','.join(map(str, params))})"


def use_source():
    """Put the checkout's src/ first on sys.path, or raise SourceMissing."""
    if not (SRC / "semigraded" / "__init__.py").is_file():
        raise SourceMissing(f"no semigraded package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup(workload: Workload):
    """Import every semigraded module and build and validate the workload's
    catalog algebras.  Returns (algebras, import seconds, catalog seconds)."""
    use_source()
    t0 = time.perf_counter()
    import semigraded
    if Path(semigraded.__file__).resolve().parent.parent != SRC:
        raise SourceMissing(f"semigraded was imported from {semigraded.__file__}, not {SRC}")
    for info in pkgutil.iter_modules(semigraded.__path__):
        importlib.import_module(f"semigraded.{info.name}")
    t1 = time.perf_counter()
    from semigraded.gralgebra import paper_catalog
    algebras = {catalog_key(*spec): paper_catalog(*spec) for spec in workload.catalog}
    t2 = time.perf_counter()
    return algebras, t1 - t0, t2 - t1


def run_tasks(tasks):
    """Run (name, fn) tasks in order; fn returns None when its output matches
    the reference, else a description of the mismatch."""
    outcomes = []
    for name, fn in tasks:
        t0 = time.perf_counter()
        try:
            error = fn()
        except Exception as exc:  # a raised error is one failed task; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(name, error, time.perf_counter() - t0))
    return outcomes


def _check_codim(alg, n, mode, seed, want, label, got=None):
    from semigraded.codim import graded_codim
    res = graded_codim(alg, n, mode=mode, seed=seed)
    if got is not None:
        got[n] = res.value
    if (res.value, res.certification) != (want, label):
        return f"got {res.value} ({res.certification}), want {want} ({label})"
    return None


def _check_multiplicity(alg, parts, got):
    from semigraded.cochar import Partition, multiplicity_exact
    m = multiplicity_exact(alg, Partition(parts))
    got[parts] = m
    want = MULTIPLICITY_REFERENCE[parts]
    return None if m == want else f"got {m}, want {want}"


def _check_character_sum(n, codims, mults):
    """sum over shapes of n of m_lambda * d_lambda equals c_n."""
    from semigraded.cochar import hook_dim, partitions_of
    total = sum(mults[lam.parts] * hook_dim(lam) for lam in partitions_of(n))
    want = CODIM_REFERENCE["thm_T3_fractional"][n - 1]
    if total != codims[n] or total != want:
        return f"sum m_lambda d_lambda = {total}, c_{n} = {codims[n]}, want {want}"
    return None


def codim_modular_pass(algebras, seed):
    tasks = [
        (f"{key} c_{n} modular",
         partial(_check_codim, algebras[key], n, "modular", seed, want, LABEL_MODULAR))
        for key, ref in CODIM_REFERENCE.items()
        for n, want in enumerate(ref, 1)
    ]
    return run_tasks(tasks)


def exact_pass(algebras, seed):
    t3 = algebras["thm_T3_fractional"]
    codims, mults = {}, {}
    tasks = [
        (f"thm_T3_fractional c_{n} exact",
         partial(_check_codim, t3, n, "exact", seed, want, LABEL_EXACT, codims))
        for n, want in enumerate(CODIM_REFERENCE["thm_T3_fractional"], 1)
    ]
    tasks += [(f"multiplicity {parts}", partial(_check_multiplicity, t3, parts, mults))
              for parts in MULTIPLICITY_REFERENCE if sum(parts) == 4]
    tasks.append(("sum m_lambda d_lambda = c_4", partial(_check_character_sum, 4, codims, mults)))
    tasks += [(f"multiplicity {parts}", partial(_check_multiplicity, t3, parts, mults))
              for parts in MULTIPLICITY_REFERENCE if sum(parts) == 5]
    return run_tasks(tasks)


def battery_pass(algebras, seed):
    """verify.run_battery with every check; a check's seconds run from the
    previous emit (or the start) to its own emit."""
    from semigraded.verify import run_battery
    marks = []
    start = time.perf_counter()
    results = run_battery(algebras=algebras, emit=lambda line: marks.append(time.perf_counter()))
    outcomes = []
    for res, prev, t in zip(results, [start] + marks, marks):
        outcomes.append(Outcome(res.check_id, None if res.passed else res.detail, t - prev))
    ran = {res.check_id for res in results}
    outcomes += [Outcome(c, "check did not run", 0.0) for c in BATTERY_CHECKS if c not in ran]
    return outcomes


WORKLOADS = {w.name: w for w in (
    # wide blocks (T1-T3, n = 5) and tall ones (mk2, n = 6) through the
    # modular engine: block assembly and rank mod p
    Workload("codim-modular",
             (("thm_T1_fractional",), ("thm_T2_fractional",),
              ("thm_T3_fractional",), ("mk_column_graded", 2)),
             codim_modular_pass, uses_seed=True),
    # the rank over Q, in codim assembly and in the symmetrizer rows
    Workload("exact", (("thm_T3_fractional",),), exact_pass, uses_seed=False),
    # verify-paper: polytope solve, operator closure, witness checks;
    # almost no codim work
    Workload("battery",
             (("exampleT1", 2), ("exampleT2", 2), ("exampleT3", 2),
              ("utk_column_graded", 2), ("utk_column_graded", 3),
              ("thm_T1_fractional",), ("thm_T2_fractional",), ("thm_T3_fractional",),
              ("mk_column_graded", 2), ("mk_column_graded", 3),
              ("full_matrix", 2), ("full_matrix", 3)),
             battery_pass, uses_seed=False),
)}
