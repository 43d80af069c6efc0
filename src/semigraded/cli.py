"""Command-line front end.

Exit codes: 0 success, 1 failed check or domain error, 2 usage error,
3 resource limit.  Every error path prints one machine-readable JSON
line on stderr.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager

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
from .gralgebra import is_graded_subspace, parse_catalog_spec, validate, with_trivial_grading
from .semigroup import classify_order2, enumerate_semigroups, isomorphism_classes

USAGE_ERRORS = (BadParam, OrderTooLarge, UnknownName, UnknownTag, WrongOrder)


def _emit(out_path: str | None, text: str):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _load(input_path: str | None, catalog: str | None):
    if input_path and catalog:
        raise BadParam("give either --input or --catalog, not both")
    if input_path:
        return load_algebra(input_path)
    if catalog:
        return parse_catalog_spec(catalog)
    raise BadParam("an algebra is required: --input FILE or --catalog SPEC")


def _int_list(option: str, text: str) -> tuple:
    """Comma separated integers; empty items are skipped."""
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise BadParam(f"{option} takes comma separated integers, got {text!r}") from None


def _rows_of_subspace(alg, s):
    return [{alg.basis_labels[i]: str(c) for i, c in enumerate(row) if c != 0}
            for row in s.canonical_rows]


def _fail(exc: Exception, message: str, code: int):
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": message}) + "\n")
    sys.exit(code)


# Click >= 8.2 shows the help of a bare group through a usage error; it stays help
_HELP_ERRORS = getattr(click.exceptions, "NoArgsIsHelpError", ())


@contextmanager
def json_errors():
    """Every error ends in the one JSON line on stderr: Click's own usage
    errors (unknown option or command, bad value or choice, missing
    option) and ours with exit 2, a resource limit with 3, any other
    workbench error with 1.  The scripts under scripts/ run inside it too."""
    try:
        yield
    except _HELP_ERRORS:
        raise
    except click.UsageError as exc:
        _fail(exc, exc.format_message(), 2)
    except USAGE_ERRORS as exc:
        _fail(exc, str(exc), 2)
    except ResourceLimit as exc:
        _fail(exc, str(exc), 3)
    except WorkbenchError as exc:
        _fail(exc, str(exc), 1)


class _Group(click.Group):
    """Options are parsed in make_context, a subcommand's inside invoke;
    a command's return value is the exit code."""

    def make_context(self, *args, **kwargs):
        with json_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with json_errors():
            code = super().invoke(ctx)
        sys.exit(code or 0)


def _algebra_options(fn):
    fn = click.option("--input", "input_path", type=click.Path(exists=True),
                      help="algebra definition file")(fn)
    fn = click.option("--catalog", help="catalog spec, e.g. thm_T1_fractional or "
                                        "mk_column_graded(2)")(fn)
    return fn


_out_option = click.option("--out", "out_path", type=click.Path(), default=None)


def _output_options(fn):
    """The one writer: the command returns (payload, text) or (payload,
    text, exit code); --format json writes the payload as indented JSON,
    text the text, to --out or stdout."""
    @_out_option
    @click.option("--format", "out_format", type=click.Choice(["text", "json"]), default="text")
    @functools.wraps(fn)
    def command(out_format, out_path, **kwargs):
        payload, text, *code = fn(**kwargs)
        _emit(out_path, json.dumps(payload, indent=2, sort_keys=True)
              if out_format == "json" else text)
        return code[0] if code else 0
    return command


@click.group(cls=_Group)
def main():
    """Exact workbench for semigroup-graded algebras and identity growth."""


@main.command()
@click.option("--order", type=int, required=True)
@_output_options
def semigroups(order):
    """Enumerate and classify the semigroups of a small order."""
    found = enumerate_semigroups(order)
    classes = isomorphism_classes(found)
    entries = []
    for cls in classes:
        rep = cls[0]
        tag = classify_order2(rep) if order == 2 else f"class-of-{len(cls)}"
        entries.append({"tag": tag, "count": len(cls), "table": [list(r) for r in rep.table]})
    entries.sort(key=lambda e: e["tag"])
    lines = [f"order {order}: {len(found)} associative tables, "
             f"{len(classes)} isomorphism classes"]
    for e in entries:
        lines.append(f"  {e['tag']}: {e['count']} tables, representative {e['table']}")
    return {"order": order, "tables": len(found), "classes": entries}, "\n".join(lines)


@main.command()
@_algebra_options
@_output_options
def check(input_path, catalog):
    """Validate an algebra: associativity, grading law, declared unit."""
    alg = _load(input_path, catalog)
    report = validate(alg)
    payload = {"name": alg.name, "dim": alg.dim, "ok": report["ok"],
               "violations": [list(map(str, v)) for v in report["violations"]]}
    return (payload, f"{alg.name}: dim {alg.dim}, {'ok' if report['ok'] else 'INVALID'}",
            0 if report["ok"] else 1)


@main.command()
@_algebra_options
@_output_options
def radical(input_path, catalog):
    """The Jacobson radical, with a gradedness flag."""
    alg = _load(input_path, catalog)
    rad = structure.jacobson_radical(alg)
    graded = is_graded_subspace(alg, rad)
    payload = {"name": alg.name, "radical_dim": rad.dim, "graded": graded,
               "basis": _rows_of_subspace(alg, rad)}
    lines = [f"{alg.name}: radical dim {rad.dim}, {'graded' if graded else 'not graded'}"]
    for row in payload["basis"]:
        lines.append("  " + " + ".join(f"{c}*{l}" for l, c in row.items()))
    return payload, "\n".join(lines)


@main.command()
@_algebra_options
@_output_options
def split(input_path, catalog):
    """Semisimple complement of the radical (graded when available)."""
    alg = _load(input_path, catalog)
    if structure.splits_graded(alg):
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
    return payload, (f"{alg.name}: {kind} splitting, complement dim "
                     f"{payload['complement_dim']} (graded={payload['complement_graded']}), "
                     f"radical dim {payload['radical_dim']}, "
                     f"{len(data.correction_log)} corrections")


@main.command()
@_algebra_options
@_output_options
@click.option("--seed", type=int, default=0)
def simple(input_path, catalog, seed):
    """Graded-simplicity verdict with certificate or witness."""
    alg = _load(input_path, catalog)
    res = structure.is_graded_simple(alg, seed=seed)
    payload = {"name": alg.name, "verdict": res.verdict, "detail": res.detail}
    if res.witness is not None:
        payload["witness_dim"] = res.witness.dim
        payload["witness_basis"] = _rows_of_subspace(alg, res.witness)
    return payload, f"{alg.name}: {res.verdict} ({res.detail})"


@main.command("codim")
@_algebra_options
@_output_options
@click.option("--n-max", type=int, default=4)
@click.option("--mode", type=click.Choice(["modular", "exact"]), default="modular")
@click.option("--primes", default="",
              help="comma separated primes, at least two distinct, each above n-max "
                   "and below 2**31 (modular mode)")
@click.option("--seed", type=int, default=0)
@click.option("--caps", type=int, default=codim.DEFAULT_BLOCK_CAP,
              help="max entries of: a block's live isotypic basis (rows x |H|, H the Young "
                   "subgroup of its degrees), scattered triples and combined entries (rows x "
                   "cosets x columns); a degree's word products; the layers held for ranking")
@click.option("--ordinary", is_flag=True, help="forget the grading first")
@click.option("--timings/--no-timings", default=True)
def codim_cmd(input_path, catalog, n_max, mode, primes, seed, caps, ordinary, timings):
    """Codimension sequence c_1 .. c_n_max."""
    plist = _int_list("--primes", primes)
    if caps <= 0:
        raise BadParam("resource caps must be positive")
    alg = _load(input_path, catalog)
    if ordinary:
        alg = with_trivial_grading(alg)
    results = codim.codim_sequence(alg, n_max, mode, primes=plist or None, seed=seed,
                                   max_block_entries=caps)
    payload = [{"n": r.n, "c_n": r.value, "certification": r.certification,
                "seconds": round(r.seconds, 3) if timings else None,
                "blocks": [{"assignment": list(b.assignment), "rank": b.rank}
                           for b in r.blocks]}
               for r in results]
    lines = ["n,c_n,certification,seconds"]
    for r in results:
        sec = f"{r.seconds:.3f}" if timings else ""
        lines.append(f"{r.n},{r.value},\"{r.certification}\",{sec}")
    return payload, "\n".join(lines)


@main.command()
@_algebra_options
@_output_options
@click.option("--shape", required=True, help="partition, e.g. 2,1,1")
@click.option("--variant", type=click.Choice(["T1", "T3"]), default=None,
              help="also run the witness certificate for this variant")
@click.option("--exact/--no-exact", default=True)
def multiplicity(input_path, catalog, shape, variant, exact):
    """Multiplicity data for one shape: exact value and/or certificate."""
    alg = _load(input_path, catalog)
    try:
        lam = cochar.Partition(_int_list("--shape", shape))
    except ValueError as exc:
        raise BadParam(f"--shape {shape!r} is not a partition: {exc}") from None
    payload = {"name": alg.name, "shape": list(lam.parts)}
    report = None
    if variant:
        data = cochar.build_witness(variant, lam, alg=alg)
        [value] = cochar.apply_symmetrizer(alg, [(data.tableau, data.f, data.tau)])
        payload["certificate_nonzero"] = any(c != 0 for c in value)
        report = cochar.format_witness_report(alg, data, value)
    if exact:
        try:
            payload["multiplicity"] = cochar.multiplicity_exact(alg, lam)
        except ResourceLimit as exc:
            if not variant:
                raise
            # the certificate above stands on its own; keep it
            payload["multiplicity"] = None
            payload["multiplicity_skipped"] = str(exc)
    bits = [f"{alg.name} shape {lam.parts}:"]
    if "multiplicity_skipped" in payload:
        bits.append(f"multiplicity skipped ({payload['multiplicity_skipped']})")
    elif "multiplicity" in payload:
        bits.append(f"multiplicity {payload['multiplicity']}")
    if "certificate_nonzero" in payload:
        bits.append(f"certificate {'nonzero' if payload['certificate_nonzero'] else 'failed'}")
    return payload, "\n".join([" ".join(bits)] + ([report] if report else []))


@main.command()
@_output_options
@click.option("--q", type=int, required=True)
@click.option("--tolerance", type=float, default=1e-9)
def phimax(q, tolerance):
    """Maximize the product function over the pairing polytope."""
    closed = asympt.lemma_max_closed_form(q)  # refuses q < 4 before any solve
    res = asympt.maximize_phi(asympt.lemma_max_polytope(q), tolerance=tolerance)
    payload = {"q": q, "value": res.value, "closed_form": closed.value,
               "difference": abs(res.value - closed.value),
               "point": list(res.point), "method": res.method,
               "certified_gap": res.certified_gap}
    return payload, (f"q={q}: max {res.value:.12f} "
                     f"(closed form {closed.value:.12f}, diff {payload['difference']:.2e})")


@main.command()
@_output_options
@click.option("--q", type=int, required=True, help="polytope dimension (>= 4)")
@click.option("--n-max", type=int, default=20)
@_algebra_options
@click.option("--codim-n-max", type=int, default=0,
              help="attach computed codimensions up to this n (0: none)")
@click.option("--seed", type=int, default=0)
def bounds(q, n_max, input_path, catalog, codim_n_max, seed):
    """Growth-bound table: d^n next to codimensions and hook lower bounds."""
    if n_max < 1:
        raise BadParam(f"--n-max must be at least 1, got {n_max}")
    closed = asympt.lemma_max_closed_form(q)
    # refused past the float range before any codimension is computed
    rows = asympt.bound_report(closed.value, range(1, n_max + 1), alpha=closed.point)
    if codim_n_max:
        c_values = {r.n: r.value for r in
                    codim.codim_sequence(_load(input_path, catalog), codim_n_max, seed=seed)}
        for row in rows:
            row["c_n"] = c_values.get(row["n"])
    lines = ["n,d_pow_n,c_n,hook_lower"]
    for r in rows:
        c = "" if r["c_n"] is None else r["c_n"]
        lines.append(f"{r['n']},{r['d_pow_n']:.6f},{c},{r['hook_lower']}")
    return rows, "\n".join(lines)


@main.command()
@_algebra_options
@_output_options
@click.option("--ordinary", is_flag=True, help="forget the grading first")
def exponent(input_path, catalog, ordinary):
    """The chain-formula growth exponent."""
    alg = _load(input_path, catalog)
    d = structure.ordinary_exponent(alg) if ordinary else structure.graded_exponent_d(alg)
    kind = "ordinary" if ordinary else "graded"
    return {"name": alg.name, "kind": kind, "d": d}, f"{alg.name}: {kind} exponent {d}"


@main.command("verify-paper")
@click.option("--sections", multiple=True,
              help="restrict to check ids or groups (repeatable)")
@_output_options
@click.option("--timings/--no-timings", default=True,
              help="give each check's seconds in the json output")
def verify_paper(sections, timings):
    """Run the full verification battery; exit 0 iff every check passes."""
    lines = []
    results = verify.run_battery(sections=sections or None, emit=lines.append)
    payload = [{"check": r.check_id, "group": r.group, "passed": r.passed, "detail": r.detail,
                **({"seconds": round(r.seconds, 6)} if timings else {})} for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return payload, "\n".join(lines), 0 if results and all(r.passed for r in results) else 1


@main.command()
@_algebra_options
@_out_option
def export(input_path, catalog, out_path):
    """Write an algebra back out in the definition-file format."""
    _emit(out_path, serialize_algebra(_load(input_path, catalog)))


if __name__ == "__main__":
    main()
