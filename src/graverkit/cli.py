"""Command-line front end.

Each subcommand handler computes its result once and returns it twice: as the
payload that --format json prints and as the text that --format text prints.
Only `main` reads --format for a result, and writes the chosen form to stdout
or --out; `_emit_error` reads it for an error.

Exit codes: 0 success, 2 usage or input error, 3 mathematical precondition
failure (e.g. a non-pointed matrix), 4 budget exhaustion, 1 any other toolkit
error, a `search` that found a violation (its report is still written), or a
stdout closed before the output was written (e.g. piped into `head`). With
--format json errors are emitted as machine-readable JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bouquet import bouquet_decomposition
from .complexes import classify_curve3, lambda_matrix, robust_complex
from .errors import BudgetExceededError, GraverKitError, PreconditionError
from .graver import DEFAULT_BUDGET, Budget, circuits
from .lawrence import GenLawrenceSpec, build_gen_lawrence, reconstruct_gen_lawrence
from .linalg import IntMat
from .oracle import graver_by_enumeration, indispensable_by_enumeration, kernel_points_in_box
from .robustness import indispensable_set, is_strongly_robust
from .search import sullivant_search
from .store import cached_graver_basis, read_matrix, resolve_cache, vectors_to_json


class UsageError(GraverKitError):
    pass


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="FILE", help="write the result to FILE instead of stdout")
    p.add_argument("--cache-dir", metavar="PATH", help="persistent result cache (env GRAVERKIT_CACHE_DIR)")
    p.add_argument("--budget-elems", type=int, default=DEFAULT_BUDGET.max_candidates, metavar="N",
                   help="candidate cap per computation (default 2e6)")
    p.add_argument("--budget-secs", type=float, default=DEFAULT_BUDGET.max_seconds, metavar="S",
                   help="wall-clock cap per computation (default 600)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graverkit",
        description="Exact Graver bases, bouquets, and strongly robust complexes of monomial curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    command("graver", cmd_graver, "Graver basis of a matrix file").add_argument("matrix")
    command("circuits", cmd_circuits, "circuits of a matrix file").add_argument("matrix")
    command("indispensable", cmd_indispensable, "indispensable elements S(A)").add_argument("matrix")
    command("bouquets", cmd_bouquets, "bouquet decomposition report").add_argument("matrix")
    command("check-robust", cmd_check_robust, "decide Gr(A) = S(A)").add_argument("matrix")

    p = command("complex", cmd_complex, "strongly robust complex of a monomial curve")
    p.add_argument("entries", nargs="+", type=int, metavar="N")
    p.add_argument("--verify", action="store_true",
                   help="cross-check each singleton against the lifting test")

    p = command("classify3", cmd_classify3, "complete-intersection classification of a 1x3 curve")
    p.add_argument("entries", nargs=3, type=int, metavar="N")

    p = command("lambda", cmd_lambda, "lifted matrix Lambda(T)_omega")
    p.add_argument("entries", nargs="+", type=int, metavar="N")
    p.add_argument("--omega", default="", metavar="I,J,...",
                   help="comma-separated 1-based indices (default: empty set)")

    p = command("genlaw", cmd_genlaw, "build a generalized Lawrence matrix from a JSON spec")
    p.add_argument("spec", help='JSON file {"T": [...], "c": [[...],...], "lambda": [[...],...]? }')
    p.add_argument("--verify", action="store_true",
                   help="also run the strong-robustness check on the result")
    p.add_argument("--skip-hypothesis", action="store_true",
                   help="skip the mixedness hypothesis check")

    command("reconstruct", cmd_reconstruct,
            "generalized Lawrence form of a matrix file").add_argument("matrix")

    p = command("search", cmd_search, "bounded scan of robust complexes")
    p.add_argument("--s", nargs="+", type=int, default=[3], metavar="S")
    p.add_argument("--bound", type=int, default=20)
    p.add_argument("--samples", type=int, default=None,
                   help="random sample size per s (default: exhaustive)")
    p.add_argument("--seed", type=int, default=0)

    p = command("oracle", cmd_oracle, "brute-force reference computations")
    p.add_argument("mode", choices=("kernel", "graver", "indispensable"))
    p.add_argument("matrix")
    p.add_argument("--box", type=int, default=12, help="coordinate bound (default 12)")
    p.add_argument("--wbox", type=int, default=None,
                   help="bound for the semiconformal second summand (default: --box)")

    # last, so that --help lists each command's own arguments first
    for p in sub.choices.values():
        _add_common(p)
    return parser


def _budget(args) -> Budget:
    return Budget(max_candidates=args.budget_elems, max_seconds=args.budget_secs)


def _load(args) -> IntMat:
    try:
        return read_matrix(args.matrix)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read matrix from {args.matrix}: {exc}") from exc


def _graver_for(args, A: IntMat):
    try:  # the directory cannot be made, or an entry cannot be written
        return cached_graver_basis(A, resolve_cache(args.cache_dir), budget=_budget(args))
    except OSError as exc:
        raise UsageError(f"cannot use --cache-dir {exc.filename}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# handlers; each returns (payload, text) for `main` to print one of

Output = tuple[dict, str]


def _vector_set(payload: dict) -> Output:
    return payload, IntMat(payload["elements"], payload["n"]).to_text()


def cmd_graver(args) -> Output:
    A = _load(args)
    G = _graver_for(args, A)
    return _vector_set({"n": G.n, "count": len(G), "elements": vectors_to_json(G.elements),
                        "matrix_hash": A.content_hash()})


def cmd_circuits(args) -> Output:
    C = circuits(_load(args), budget=_budget(args))
    return _vector_set({"n": C.n, "count": len(C), "elements": vectors_to_json(C.elements)})


def cmd_indispensable(args) -> Output:
    A = _load(args)
    G = _graver_for(args, A)
    S = indispensable_set(A, G=G)
    return _vector_set({"n": S.n, "count": len(S), "elements": vectors_to_json(S.elements),
                        "graver_size": len(G), "matrix_hash": A.content_hash()})


def cmd_bouquets(args) -> Output:
    dec = bouquet_decomposition(_load(args))
    payload = {
        "bouquets": [
            {
                "members": list(b.members),
                "kind": b.kind,
                "c_vector": list(dec.c_vector(i + 1)),
            }
            for i, b in enumerate(dec.bouquets)
        ],
        "free_columns": list(dec.free_columns()),
        "a_matrix": [list(row) for row in dec.a_matrix.rows],
        "omega": sorted(dec.non_mixed_indices()),
        "simple": dec.simple,
    }
    lines = [f"B{i}: members={list(b.members)} kind={b.kind} c={list(b.c_restriction)}"
             for i, b in enumerate(dec.bouquets, start=1)]
    if dec.free_bouquet:
        lines.append(f"free: members={list(dec.free_bouquet.members)}")
    lines.append(f"omega: {payload['omega']}")
    lines.append("A_B:")
    lines.append(dec.a_matrix.to_text().rstrip())
    return payload, "\n".join(lines) + "\n"


def cmd_check_robust(args) -> Output:
    A = _load(args)
    cert = is_strongly_robust(A, G=_graver_for(args, A))
    payload = {
        "matrix_hash": A.content_hash(),
        "strongly_robust": cert.strongly_robust,
        "graver_size": cert.graver_size,
        "indispensable_size": cert.indispensable_size,
    }
    lines = [f"strongly_robust: {str(cert.strongly_robust).lower()}",
             f"graver_size: {cert.graver_size}",
             f"indispensable_size: {cert.indispensable_size}"]
    if cert.witness is not None:
        u, v, w = cert.witness
        payload["witness"] = {"u": list(u), "v": list(v), "w": list(w)}
        lines.append(f"witness: {list(u)} = {list(v)} +sc {list(w)}")
    return payload, "\n".join(lines) + "\n"


def cmd_complex(args) -> Output:
    rc = robust_complex(args.entries, verify=args.verify, budget=_budget(args))
    faces = rc.sorted_faces()
    payload = {
        "T": list(rc.T),
        "faces": faces,
        "cross_checked": rc.cross_checked,
    }
    lines = [f"T: {' '.join(str(x) for x in rc.T)}",
             "faces: " + ", ".join(str(f) for f in faces)]
    if len(rc.T) == 3:
        cls = classify_curve3(rc.T)
        payload["classification"] = {
            "kind": cls.describe(),
            "c": list(cls.c),
            "betti_candidates": list(cls.betti_candidates),
        }
        lines.append(f"classification: {cls.describe()}")
    return payload, "\n".join(lines) + "\n"


def cmd_classify3(args) -> Output:
    cls = classify_curve3(args.entries)
    payload = {"T": list(cls.T), "kind": cls.describe(), "on": cls.on,
               "c": list(cls.c), "betti_candidates": list(cls.betti_candidates)}
    degrees = ",".join(str(d) for d in cls.betti_candidates)
    return payload, f"{cls.describe()}, degrees {degrees}\n"


def cmd_lambda(args) -> Output:
    try:
        omega = [int(t) for t in args.omega.split(",") if t.strip()]
    except ValueError:
        raise UsageError(
            f"--omega takes comma-separated 1-based indices, got {args.omega!r}") from None
    lam = lambda_matrix(args.entries, omega)
    payload = {"T": list(lam.T.rows[0]), "omega": sorted(lam.omega),
               "matrix": [list(r) for r in lam.matrix.rows]}
    return payload, lam.matrix.to_text()


def cmd_genlaw(args) -> Output:
    try:
        raw = json.loads(Path(args.spec).read_text())
        T = tuple(raw["T"])
        c_vectors = tuple(tuple(c) for c in raw["c"])
        lambdas = raw.get("lambda")  # absent or null: the default lambdas
        if lambdas is not None:
            if not isinstance(lambdas, list):
                raise ValueError(f"lambda is {json.dumps(lambdas)}, not a list")
            lambdas = tuple(tuple(l) for l in lambdas)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read spec from {args.spec}: {exc}") from exc
    # the spec converts with operator.index, which reads booleans as 0 or 1
    # and rejects a float without naming the entry
    entries = [(f"T[{j}]", x) for j, x in enumerate(T)]
    for key, rows in (("c", c_vectors), ("lambda", lambdas or ())):
        entries += [(f"{key}[{i}][{j}]", x)
                    for i, row in enumerate(rows) for j, x in enumerate(row)]
    for name, x in entries:
        if type(x) is not int:
            raise UsageError(f"cannot read spec from {args.spec}: {name} is {json.dumps(x)}, "
                             "not an integer")
    spec = GenLawrenceSpec(T=T, c_vectors=c_vectors, lambda_vectors=lambdas)
    built = build_gen_lawrence(spec, check_hypothesis=not args.skip_hypothesis,
                               budget=_budget(args))
    payload = {"matrix": [list(r) for r in built.matrix.rows],
               "p": built.matrix.nrows, "q": built.matrix.ncols}
    text = built.matrix.to_text()
    if args.verify:
        verdict = is_strongly_robust(built.matrix, budget=_budget(args)).strongly_robust
        payload["strongly_robust"] = verdict
        text += f"strongly_robust: {str(verdict).lower()}\n"
    return payload, text


def cmd_reconstruct(args) -> Output:
    rec = reconstruct_gen_lawrence(_load(args))
    payload = {
        "T": list(rec.spec.T),
        "c": [list(c) for c in rec.spec.c_vectors],
        "lambda": [list(l) for l in rec.spec.resolved_lambdas()],
        "matrix": [list(r) for r in rec.matrix.rows],
        "permutation": list(rec.column_permutation),
    }
    lines = [rec.matrix.to_text().rstrip(),
             "permutation: " + " ".join(str(p) for p in rec.column_permutation),
             "T: " + " ".join(str(x) for x in rec.spec.T)]
    return payload, "\n".join(lines) + "\n"


def cmd_search(args) -> Output:
    report = sullivant_search(
        args.s, args.bound, sample_budget=args.samples, seed=args.seed, budget=_budget(args)
    )
    d = report.to_dict()
    lines = [
        f"instances: {d['instances']}",
        f"empty_complex: {d['empty_complex']}",
        f"one_vertex: {d['one_vertex']}",
        f"violations: {len(d['violations'])}",
        f"skipped: {len(d['skipped'])}",
        f"ok: {str(d['ok']).lower()}",
    ]
    lines.extend(f"VIOLATION: {v}" for v in d["violations"])
    return d, "\n".join(lines) + "\n"


def cmd_oracle(args) -> Output:
    A = _load(args)
    box = args.box
    if args.mode == "kernel":
        vectors = tuple(sorted(kernel_points_in_box(A, box)))
    elif args.mode == "graver":
        vectors = graver_by_enumeration(A, box)
    else:
        vectors = indispensable_by_enumeration(A, box, box if args.wbox is None else args.wbox)
    return _vector_set({"n": A.ncols, "box": box, "mode": args.mode,
                        "count": len(vectors), "elements": vectors_to_json(vectors)})


# ---------------------------------------------------------------------------

def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_error(args, exc: Exception) -> None:
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
        )
    else:
        print(f"error: {exc}", file=sys.stderr)


# the first matching class decides the exit code; see the module docstring
_EXIT_CODES = ((UsageError, 2), (ValueError, 2), (BudgetExceededError, 4),
               (PreconditionError, 3), (GraverKitError, 1))


def _run(args) -> int:
    try:
        payload, text = args.func(args)
        _emit(args, json.dumps(payload, indent=2) if args.format == "json" else text)
    except (GraverKitError, ValueError) as exc:
        _emit_error(args, exc)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return 0 if payload.get("ok", True) else 1  # a search that found a violation fails


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early; point stdout at devnull so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1

if __name__ == "__main__":
    sys.exit(main())
