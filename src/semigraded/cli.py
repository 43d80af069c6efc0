"""Command-line front end.

Exit codes: 0 success, 1 failed check or domain error, 2 usage error,
3 resource limit.  Every error path prints one machine-readable JSON
line on stderr.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
import click

from . import asympt, codim, cochar, structure, verify
from .algfile import load_algebra, serialize_algebra
from .errors import (
    BadParam,
    OrderTooLarge,
    ResourceLimit,
    UnknownName,
    UnknownTag,
    WorkbenchError,
    WrongOrder,
)
from .gralgebra import is_graded_subspace, parse_catalog_spec, validate
from .semigroup import classify_order2, enumerate_semigroups, isomorphism_classes

USAGE_ERRORS = (BadParam, OrderTooLarge, UnknownName, UnknownTag, WrongOrder)


@dataclass
class RunConfig:
    command: str = ""
    input_path: str | None = None
    catalog: str | None = None
    n_max: int = 4
    mode: str = "modular"
    primes: tuple = ()
    seed: int = 0
    max_block_entries: int = codim.DEFAULT_BLOCK_CAP
    out_format: str = "text"
    out_path: str | None = None
    sections: tuple = ()
    timings: bool = True

    def __post_init__(self):
        if self.max_block_entries <= 0:
            raise BadParam("resource caps must be positive")


def _emit(cfg: RunConfig, text: str):
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _load(cfg: RunConfig):
    if cfg.input_path and cfg.catalog:
        raise BadParam("give either --input or --catalog, not both")
    if cfg.input_path:
        return load_algebra(cfg.input_path)
    if cfg.catalog:
        return parse_catalog_spec(cfg.catalog)
    raise BadParam("an algebra is required: --input FILE or --catalog SPEC")


def _int_list(option: str, text: str) -> tuple:
    """Comma separated integers; empty items are skipped."""
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise BadParam(f"{option} takes comma separated integers, got {text!r}") from None


def _rows_of_subspace(alg, s):
    return [
        {alg.basis_labels[i]: str(c) for i, c in enumerate(row) if c != 0}
        for row in s.rows
    ]


def _run(fn):
    try:
        code = fn()
    except USAGE_ERRORS as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        sys.exit(2)
    except ResourceLimit as exc:
        sys.stderr.write(json.dumps({"error": "ResourceLimit", "message": str(exc)}) + "\n")
        sys.exit(3)
    except WorkbenchError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        sys.exit(1)
    sys.exit(code or 0)


def _algebra_options(fn):
    fn = click.option("--input", "input_path", type=click.Path(exists=True),
                      help="algebra definition file")(fn)
    fn = click.option("--catalog", help="catalog spec, e.g. thm_T1_fractional or "
                                        "mk_column_graded(2)")(fn)
    return fn


def _output_options(fn):
    fn = click.option("--format", "out_format",
                      type=click.Choice(["text", "csv", "json"]), default="text")(fn)
    fn = click.option("--out", "out_path", type=click.Path(), default=None)(fn)
    return fn


@click.group()
def main():
    """Exact workbench for semigroup-graded algebras and identity growth."""


@main.command()
@click.option("--order", type=int, required=True)
@_output_options
def semigroups(order, out_format, out_path):
    """Enumerate and classify the semigroups of a small order."""
    def go():
        cfg = RunConfig(command="semigroups", out_format=out_format, out_path=out_path)
        found = enumerate_semigroups(order)
        classes = isomorphism_classes(found)
        entries = []
        for cls in classes:
            rep = cls[0]
            tag = classify_order2(rep) if order == 2 else f"class-of-{len(cls)}"
            entries.append({"tag": tag, "count": len(cls), "table": [list(r) for r in rep.table]})
        entries.sort(key=lambda e: e["tag"])
        if out_format == "json":
            _emit(cfg, json.dumps({"order": order, "tables": len(found),
                                   "classes": entries}, indent=2, sort_keys=True))
        else:
            lines = [f"order {order}: {len(found)} associative tables, "
                     f"{len(classes)} isomorphism classes"]
            for e in entries:
                lines.append(f"  {e['tag']}: {e['count']} tables, representative {e['table']}")
            _emit(cfg, "\n".join(lines))
        return 0
    _run(go)


@main.command()
@_algebra_options
@_output_options
def check(input_path, catalog, out_format, out_path):
    """Validate an algebra: associativity, grading law, declared unit."""
    def go():
        cfg = RunConfig(command="check", input_path=input_path, catalog=catalog,
                        out_format=out_format, out_path=out_path)
        alg = _load(cfg)
        report = validate(alg)
        payload = {"name": alg.name, "dim": alg.dim, "ok": report["ok"],
                   "violations": [list(map(str, v)) for v in report["violations"]]}
        if out_format == "json":
            _emit(cfg, json.dumps(payload, indent=2, sort_keys=True))
        else:
            _emit(cfg, f"{alg.name}: dim {alg.dim}, "
                       f"{'ok' if report['ok'] else 'INVALID'}")
        return 0 if report["ok"] else 1
    _run(go)


@main.command()
@_algebra_options
@_output_options
def radical(input_path, catalog, out_format, out_path):
    """The Jacobson radical, with a gradedness flag."""
    def go():
        cfg = RunConfig(command="radical", input_path=input_path, catalog=catalog,
                        out_format=out_format, out_path=out_path)
        alg = _load(cfg)
        rad = structure.jacobson_radical(alg)
        graded = is_graded_subspace(alg, rad)
        payload = {"name": alg.name, "radical_dim": rad.dim, "graded": graded,
                   "basis": _rows_of_subspace(alg, rad)}
        if out_format == "json":
            _emit(cfg, json.dumps(payload, indent=2, sort_keys=True))
        else:
            lines = [f"{alg.name}: radical dim {rad.dim}, "
                     f"{'graded' if graded else 'not graded'}"]
            for row in payload["basis"]:
                lines.append("  " + " + ".join(f"{c}*{l}" for l, c in row.items()))
            _emit(cfg, "\n".join(lines))
        return 0
    _run(go)


@main.command()
@_algebra_options
@_output_options
def split(input_path, catalog, out_format, out_path):
    """Semisimple complement of the radical (graded when available)."""
    def go():
        cfg = RunConfig(command="split", input_path=input_path, catalog=catalog,
                        out_format=out_format, out_path=out_path)
        alg = _load(cfg)
        from .structure import _zero_band_side
        if alg.unit is not None and _zero_band_side(alg.semigroup):
            data = structure.graded_malcev_zeroband(alg)
            kind = "graded"
        else:
            data = structure.malcev_complement(alg)
            kind = "plain"
        payload = {
            "name": alg.name, "kind": kind,
            "complement_dim": data.complement.dim,
            "radical_dim": data.radical.dim,
            "complement_graded": is_graded_subspace(alg, data.complement),
            "corrections": data.correction_log,
            "complement_basis": _rows_of_subspace(alg, data.complement),
        }
        if out_format == "json":
            _emit(cfg, json.dumps(payload, indent=2, sort_keys=True))
        else:
            _emit(cfg, f"{alg.name}: {kind} splitting, complement dim "
                       f"{payload['complement_dim']} (graded={payload['complement_graded']}), "
                       f"radical dim {payload['radical_dim']}, "
                       f"{len(data.correction_log)} corrections")
        return 0
    _run(go)


@main.command()
@_algebra_options
@_output_options
@click.option("--seed", type=int, default=0)
def simple(input_path, catalog, out_format, out_path, seed):
    """Graded-simplicity verdict with certificate or witness."""
    def go():
        cfg = RunConfig(command="simple", input_path=input_path, catalog=catalog,
                        out_format=out_format, out_path=out_path, seed=seed)
        alg = _load(cfg)
        res = structure.is_graded_simple(alg, seed=cfg.seed)
        payload = {"name": alg.name, "verdict": res.verdict, "detail": res.detail}
        if res.witness is not None:
            payload["witness_dim"] = res.witness.dim
            payload["witness_basis"] = _rows_of_subspace(alg, res.witness)
        if out_format == "json":
            _emit(cfg, json.dumps(payload, indent=2, sort_keys=True))
        else:
            _emit(cfg, f"{alg.name}: {res.verdict} ({res.detail})")
        return 0
    _run(go)


@main.command("codim")
@_algebra_options
@_output_options
@click.option("--n-max", type=int, default=4)
@click.option("--mode", type=click.Choice(["modular", "exact"]), default="modular")
@click.option("--primes", default="",
              help="comma separated primes, at least two distinct, each below 2**31 "
                   "(modular mode)")
@click.option("--seed", type=int, default=0)
@click.option("--caps", type=int, default=codim.DEFAULT_BLOCK_CAP,
              help="max entries per evaluation block")
@click.option("--ordinary", is_flag=True, help="forget the grading first")
@click.option("--timings/--no-timings", default=True)
def codim_cmd(input_path, catalog, out_format, out_path, n_max, mode, primes,
              seed, caps, ordinary, timings):
    """Codimension sequence c_1 .. c_n_max."""
    def go():
        plist = _int_list("--primes", primes)
        cfg = RunConfig(command="codim", input_path=input_path, catalog=catalog,
                        n_max=n_max, mode=mode, primes=plist, seed=seed,
                        max_block_entries=caps, out_format=out_format,
                        out_path=out_path, timings=timings)
        alg = _load(cfg)
        fn = codim.ordinary_codim if ordinary else codim.graded_codim
        results = [fn(alg, n, mode=cfg.mode, primes=cfg.primes or None,
                      seed=cfg.seed, max_block_entries=cfg.max_block_entries)
                   for n in range(1, cfg.n_max + 1)]
        if out_format == "json":
            payload = [{"n": r.n, "c_n": r.value, "certification": r.certification,
                        "seconds": round(r.seconds, 3) if cfg.timings else None,
                        "blocks": [{"assignment": list(b.assignment), "rank": b.rank}
                                   for b in r.blocks]}
                       for r in results]
            _emit(cfg, json.dumps(payload, indent=2, sort_keys=True))
        else:
            lines = ["n,c_n,certification,seconds"]
            for r in results:
                sec = f"{r.seconds:.3f}" if cfg.timings else ""
                lines.append(f"{r.n},{r.value},\"{r.certification}\",{sec}")
            _emit(cfg, "\n".join(lines))
        return 0
    _run(go)


@main.command()
@_algebra_options
@_output_options
@click.option("--shape", required=True, help="partition, e.g. 2,1,1")
@click.option("--variant", type=click.Choice(["T1", "T3"]), default=None,
              help="also run the witness certificate for this variant")
@click.option("--exact/--no-exact", default=True)
@click.option("--n-cap", type=int, default=5)
def multiplicity(input_path, catalog, out_format, out_path, shape, variant,
                 exact, n_cap):
    """Multiplicity data for one shape: exact value and/or certificate."""
    def go():
        cfg = RunConfig(command="multiplicity", input_path=input_path,
                        catalog=catalog, out_format=out_format, out_path=out_path)
        alg = _load(cfg)
        try:
            lam = cochar.Partition(_int_list("--shape", shape))
        except ValueError as exc:
            raise BadParam(f"--shape {shape!r} is not a partition: {exc}") from None
        payload = {"name": alg.name, "shape": list(lam.parts)}
        report = None
        if variant:
            data = cochar.build_witness(variant, lam, alg=alg)
            value = cochar.apply_symmetrizer(alg, data.tableau, data.f, data.tau)
            payload["certificate_nonzero"] = any(c != 0 for c in value)
            report = cochar.format_witness_report(alg, data, value)
        if exact:
            payload["multiplicity"] = cochar.multiplicity_exact(alg, lam, n_cap=n_cap)
        if out_format == "json":
            _emit(cfg, json.dumps(payload, indent=2, sort_keys=True))
        else:
            bits = [f"{alg.name} shape {lam.parts}:"]
            if "multiplicity" in payload:
                bits.append(f"multiplicity {payload['multiplicity']}")
            if "certificate_nonzero" in payload:
                bits.append(f"certificate {'nonzero' if payload['certificate_nonzero'] else 'failed'}")
            text = " ".join(bits)
            if report:
                text += "\n" + report
            _emit(cfg, text)
        return 0
    _run(go)


@main.command()
@_output_options
@click.option("--q", type=int, required=True)
@click.option("--tolerance", type=float, default=1e-9)
@click.option("--seed", type=int, default=0)
def phimax(out_format, out_path, q, tolerance, seed):
    """Maximize the product function over the pairing polytope."""
    def go():
        cfg = RunConfig(command="phimax", out_format=out_format, out_path=out_path, seed=seed)
        res = asympt.maximize_phi(asympt.lemma_max_polytope(q),
                                  tolerance=tolerance, seed=cfg.seed)
        closed = asympt.lemma_max_closed_form(q)
        payload = {"q": q, "value": res.value, "closed_form": closed.value,
                   "difference": abs(res.value - closed.value),
                   "point": list(res.point), "method": res.method,
                   "certified_gap": res.certified_gap}
        if out_format == "json":
            _emit(cfg, json.dumps(payload, indent=2, sort_keys=True))
        else:
            _emit(cfg, f"q={q}: max {res.value:.12f} "
                       f"(closed form {closed.value:.12f}, diff {payload['difference']:.2e})")
        return 0
    _run(go)


@main.command()
@_output_options
@click.option("--q", type=int, required=True, help="polytope dimension (>= 4)")
@click.option("--n-max", type=int, default=20)
@_algebra_options
@click.option("--codim-n-max", type=int, default=0,
              help="attach computed codimensions up to this n (0: none)")
@click.option("--seed", type=int, default=0)
def bounds(out_format, out_path, q, n_max, input_path, catalog, codim_n_max, seed):
    """Growth-bound table: d^n next to codimensions and hook lower bounds."""
    def go():
        cfg = RunConfig(command="bounds", input_path=input_path, catalog=catalog,
                        n_max=n_max, seed=seed, out_format=out_format,
                        out_path=out_path)
        closed = asympt.lemma_max_closed_form(q)
        c_values = {}
        if codim_n_max and (input_path or catalog):
            alg = _load(cfg)
            for n in range(1, codim_n_max + 1):
                c_values[n] = codim.graded_codim(alg, n, seed=cfg.seed).value
        rows = asympt.bound_report(closed.value, range(1, cfg.n_max + 1),
                                   c_values=c_values, alpha=closed.point)
        if out_format == "json":
            _emit(cfg, json.dumps(rows, indent=2, sort_keys=True))
        else:
            lines = ["n,d_pow_n,c_n,hook_lower"]
            for r in rows:
                c = "" if r["c_n"] is None else r["c_n"]
                lines.append(f"{r['n']},{r['d_pow_n']:.6f},{c},{r['hook_lower']}")
            _emit(cfg, "\n".join(lines))
        return 0
    _run(go)


@main.command()
@_algebra_options
@_output_options
@click.option("--ordinary", is_flag=True, help="forget the grading first")
def exponent(input_path, catalog, out_format, out_path, ordinary):
    """The chain-formula growth exponent."""
    def go():
        cfg = RunConfig(command="exponent", input_path=input_path, catalog=catalog,
                        out_format=out_format, out_path=out_path)
        alg = _load(cfg)
        d = structure.ordinary_exponent(alg) if ordinary else structure.graded_exponent_d(alg)
        kind = "ordinary" if ordinary else "graded"
        if out_format == "json":
            _emit(cfg, json.dumps({"name": alg.name, "kind": kind, "d": d}, sort_keys=True))
        else:
            _emit(cfg, f"{alg.name}: {kind} exponent {d}")
        return 0
    _run(go)


@main.command("verify-paper")
@click.option("--sections", multiple=True,
              help="restrict to check ids or groups (repeatable)")
@_output_options
def verify_paper(sections, out_format, out_path):
    """Run the full verification battery; exit 0 iff every check passes."""
    def go():
        cfg = RunConfig(command="verify-paper", sections=tuple(sections),
                        out_format=out_format, out_path=out_path)
        lines = []
        results = verify.run_battery(sections=cfg.sections or None,
                                     emit=lines.append)
        if out_format == "json":
            payload = [{"check": r.check_id, "group": r.group,
                        "passed": r.passed, "detail": r.detail} for r in results]
            _emit(cfg, json.dumps(payload, indent=2, sort_keys=True))
        else:
            summary = f"{sum(r.passed for r in results)}/{len(results)} checks passed"
            _emit(cfg, "\n".join(lines + [summary]))
        return 0 if results and all(r.passed for r in results) else 1
    _run(go)


@main.command()
@_algebra_options
@_output_options
def export(input_path, catalog, out_format, out_path):
    """Write an algebra back out in the definition-file format."""
    def go():
        cfg = RunConfig(command="export", input_path=input_path, catalog=catalog,
                        out_format=out_format, out_path=out_path)
        alg = _load(cfg)
        _emit(cfg, serialize_algebra(alg))
        return 0
    _run(go)


if __name__ == "__main__":
    main()
