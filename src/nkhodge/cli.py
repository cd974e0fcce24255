"""Command-line front end.

Subcommands: ``validate``, ``suite``, ``hodge``, ``order``, ``models``.
Models are addressed either as ``builtin:<name>`` or as a path to a model
JSON file.  Exit codes: 0 pass, 1 validation/check failure (including a
claimed ``expected`` flag that the exact recomputation contradicts, and a
file model that fails validation before ``suite``, ``hodge`` or ``order``
runs on it), 2 usage error (including any malformed model file, a dimension
above 14, an extension_d above 10^9, an ``order --max`` outside
0..dimension and an unwritable ``models show --emit`` path), 3 applicability error
(e.g. Hodge table of a non-nearly-Kahler model), 4 internal invariant
broken (an exact self-check of the engine failed; the message is the
witness).

Reports are deterministic: two runs on the same input differ at most in the
timing fields.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .checks import CHECKS, run_suite
from .hodge import hodge_numbers
from .models import (
    BUILTIN_NAMES,
    LieAlgebraModel,
    builtin_model,
    model_from_json,
    model_hash,
    model_to_json,
    nk_report,
    validate_model,
)
from .operators import algebraic_order_at_most
from .bidegree import named_operator

USAGE_ERROR = 2
APPLICABILITY_ERROR = 3
INTERNAL_ERROR = 4

_FLAGS = ("nearly_kahler", "strict", "kahler")


def _load_model(spec: str) -> LieAlgebraModel:
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        if name not in BUILTIN_NAMES:
            raise ValueError(f"unknown builtin model {name!r}; have {', '.join(BUILTIN_NAMES)}")
        return builtin_model(name)
    try:
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read model file {spec!r}: {exc}") from exc
    return model_from_json(text)


def _emit(doc: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(text_lines))


def _load_valid_model(spec: str) -> LieAlgebraModel | None:
    """The model, or None after printing why a file model fails validation.

    Built-ins are validated when they are built; a file model is validated
    here, before any check, table or order test runs on it.
    """
    model = _load_model(spec)
    if not spec.startswith("builtin:"):
        report = validate_model(model)
        if not report.ok:
            print(report.summary(), file=sys.stderr)
            return None
    return model


def _flag_mismatches(model: LieAlgebraModel) -> list[str]:
    """Claimed expected flags that the exact nearly Kahler residual contradicts."""
    derived = nk_report(model)
    return [
        f"expected flag {flag} is {str(model.expected[flag]).lower()}, "
        f"re-derived {str(getattr(derived, flag)).lower()}"
        for flag in _FLAGS
        if flag in model.expected and model.expected[flag] != getattr(derived, flag)
    ]


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    report = validate_model(model)
    mismatches = _flag_mismatches(model) if report.ok else []
    doc = {
        "model": model.name,
        "model_hash": model_hash(model),
        "version": __version__,
        "ok": report.ok and not mismatches,
        "issues": [{"check": i.check, "witness": list(i.witness)} for i in report.issues],
    }
    if mismatches:
        doc["flag_mismatches"] = mismatches
    _emit(doc, args.report == "json", [report.summary(), *mismatches])
    return 0 if doc["ok"] else 1


def cmd_suite(args) -> int:
    selection = None
    if args.checks is not None:
        selection = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not selection:
            print(f"--checks {args.checks!r} names no check id", file=sys.stderr)
            return USAGE_ERROR
        unknown = [c for c in selection if c not in CHECKS]
        if unknown:
            print(f"unknown check id(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"known ids: {', '.join(sorted(CHECKS))}", file=sys.stderr)
            return USAGE_ERROR
        repeated = sorted({c for c in selection if selection.count(c) > 1})
        if repeated:
            print(f"check id(s) given more than once: {', '.join(repeated)}", file=sys.stderr)
            return USAGE_ERROR
    model = _load_valid_model(args.model)
    if model is None:
        return 1
    report = run_suite(model, selection=selection, deep=args.deep)
    mismatches = _flag_mismatches(model)
    checks_doc = []
    lines = [f"model {report.model} ({model.dim}-dimensional)"]
    for res in report.results:
        entry = {
            "id": res.check_id,
            "status": res.status,
            "exact_zero": res.exact_zero,
            "residual_approx": f"{res.residual_approx:.12g}",
            "ms": round(res.ms, 3),
        }
        if res.witness:
            entry["witness"] = res.witness
        if res.skip_reason:
            entry["skip_reason"] = res.skip_reason
        checks_doc.append(entry)
        note = ""
        if res.status == "fail":
            expected = res.check_id in model.expected_failures
            detail = f"residual ~ {res.residual_approx:.12g}; witness: {res.witness}"
            note = f"  (expected failure; {detail})" if expected else f"  {detail}"
        if res.status == "skip":
            note = f"  ({res.skip_reason})"
        lines.append(f"  {res.check_id:18s} {res.status:5s}{note}")
    verdict = report.verdict and not mismatches
    lines.extend(mismatches)
    lines.append(f"verdict: {'pass' if verdict else 'FAIL'}")
    doc = {
        "model": report.model,
        "model_hash": model_hash(model),
        "version": __version__,
        "checks": checks_doc,
        "verdict": verdict,
        "total_ms": round(report.total_ms, 3),
    }
    if mismatches:
        doc["flag_mismatches"] = mismatches
    _emit(doc, args.report == "json", lines)
    return 0 if verdict else 1


def cmd_hodge(args) -> int:
    model = _load_valid_model(args.model)
    if model is None:
        return 1
    try:
        report = hodge_numbers(model)
    except ValueError as exc:
        print(f"hodge table unavailable: {exc}", file=sys.stderr)
        return APPLICABILITY_ERROR
    n = model.dim // 2
    lines = [f"model {model.name}: Hodge numbers h^(p,q), p = row 0..{n}, q = col 0..{n}"]
    for p in range(n + 1):
        lines.append("  " + " ".join(f"{report.h[p][q]:3d}" for q in range(n + 1)))
    lines.append("Betti numbers: " + " ".join(str(b) for b in report.betti))
    lines.append("sum rule b^k = sum h^(p,q): " + ("holds" if report.sum_rule_holds() else "FAILS"))
    doc = {
        "model": model.name,
        "model_hash": model_hash(model),
        "version": __version__,
        "hodge": {"h": report.h_table(), "betti": list(report.betti)},
    }
    _emit(doc, args.report == "json", lines)
    return 0


# memo names of the operators ``order --op`` can test
ORDER_OPERATORS = {"d": "d", "dstar": "adj:d", "lambda_omega": "adj:L"}


def cmd_order(args) -> int:
    model = _load_valid_model(args.model)
    if model is None:
        return 1
    if not 0 <= args.max <= model.dim:
        # every operator on the exterior algebra has order <= dimension
        print(f"error: --max must lie in 0..{model.dim} (the dimension), got {args.max}",
              file=sys.stderr)
        return USAGE_ERROR
    # the algebraic order does not depend on the coframe
    comp = model.orthogonalized()
    op = named_operator(comp, ORDER_OPERATORS[args.op])
    results = {}
    first = None
    for r in range(args.max + 1):
        ok = algebraic_order_at_most(op, r)
        results[r] = ok
        if ok and first is None:
            first = r
    lines = [f"algebraic order of {args.op} on {model.name}:"]
    for r in sorted(results):
        lines.append(f"  order <= {r}: {'yes' if results[r] else 'no'}")
    lines.append(f"minimal verified bound: {first if first is not None else f'> {args.max}'}")
    doc = {
        "model": model.name,
        "version": __version__,
        "op": args.op,
        "max_tested": args.max,
        "order_at_most": {str(r): v for r, v in sorted(results.items())},
        "minimal_bound": first,
    }
    _emit(doc, args.report == "json", lines)
    return 0


def cmd_models(args) -> int:
    if args.action == "list":
        lines = []
        doc = []
        for name in BUILTIN_NAMES:
            m = builtin_model(name)
            flags = ", ".join(k for k, v in sorted(m.expected.items()) if v) or "none"
            lines.append(f"  {name:18s} dim {m.dim:2d}  extension d={m.ext_d}  flags: {flags}")
            doc.append({"name": name, "dimension": m.dim, "extension_d": m.ext_d, "expected": m.expected})
        _emit({"models": doc}, args.report == "json", ["built-in models:"] + lines)
        return 0
    # show
    if args.name not in BUILTIN_NAMES:
        print(f"unknown builtin model {args.name!r}", file=sys.stderr)
        return USAGE_ERROR
    model = builtin_model(args.name)
    text = model_to_json(model)
    if args.emit:
        try:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.emit!r}: {exc}") from exc
        print(f"wrote {args.emit}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nkhodge",
        description="Exact verification of nearly Kahler operator identities on Lie-algebra models",
    )
    parser.add_argument("--version", action="version", version=f"nkhodge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check all model invariants exactly")
    p.add_argument("model", help="builtin:<name> or path to a model JSON file")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("suite", help="run the identity check catalogue")
    p.add_argument("model")
    p.add_argument("--checks", help="comma-separated check ids (default: all applicable)")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.add_argument(
        "--deep",
        action="store_true",
        help="run the full catalogue on models of dimension >= 10 "
        "(default there is a documented fast subset)",
    )
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("hodge", help="harmonic (p,q) table and Betti numbers")
    p.add_argument("model")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_hodge)

    p = sub.add_parser("order", help="algebraic-order bounds of an operator")
    p.add_argument("model")
    p.add_argument("--op", choices=tuple(ORDER_OPERATORS), required=True)
    p.add_argument("--max", type=int, default=2)
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("models", help="list or export built-in models")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.add_argument("--emit", help="write the canonical model JSON to this path")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_models)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other exits
        return int(exc.code or 0)
    if args.command == "models" and args.action == "show" and not args.name:
        print("models show requires a model name", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AssertionError as exc:
        print(f"internal invariant broken: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
