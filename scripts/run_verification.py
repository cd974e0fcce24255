#!/usr/bin/env python3
"""Run the whole verification story across the built-in model library.

For every built-in model: validate, run the identity suite (respecting each
model's declared expected failures), and print the Hodge table where the
model is nearly Kahler.

This is the one-command reproduction of everything the package claims.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nkhodge.checks import run_suite
from nkhodge.hodge import hodge_numbers
from nkhodge.models import BUILTIN_NAMES, builtin_model, su3_extract, validate_model


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", default=",".join(BUILTIN_NAMES))
    args = parser.parse_args()
    names = [name.strip() for name in args.models.split(",")]
    unknown = [name for name in names if name not in BUILTIN_NAMES]
    if unknown:
        # argparse's error: usage and message on stderr, exit 2
        parser.error(
            f"--models: unknown built-in model(s) {', '.join(map(repr, unknown))};"
            f" have {', '.join(BUILTIN_NAMES)}"
        )

    overall_ok = True
    for name in names:
        model = builtin_model(name)
        print(f"=== {model.name} (dim {model.dim}, extension d = {model.ext_d}) ===")
        report = validate_model(model)
        print(f"  validation: {'ok' if report.ok else 'FAILED'}")
        overall_ok &= report.ok

        t0 = time.perf_counter()
        suite = run_suite(model)
        n_pass = sum(1 for r in suite.results if r.status == "pass")
        n_fail = sum(1 for r in suite.results if r.status == "fail")
        n_skip = sum(1 for r in suite.results if r.status == "skip")
        print(
            f"  suite: {n_pass} pass, {n_fail} fail"
            f" ({'all expected' if suite.verdict else 'UNEXPECTED'}), {n_skip} skip"
            f"  [{time.perf_counter() - t0:.1f}s]"
        )
        for r in suite.results:
            if r.status == "fail":
                tag = "expected" if r.check_id in model.expected_failures else "UNEXPECTED"
                print(f"    fail ({tag}): {r.check_id}: {r.witness}")
        overall_ok &= suite.verdict

        if model.expected.get("nearly_kahler"):
            t0 = time.perf_counter()
            hodge = hodge_numbers(model)
            print(f"  hodge table (h^(p,q)) [{time.perf_counter() - t0:.1f}s]:")
            for row in hodge.h:
                print("    " + " ".join(f"{v:3d}" for v in row))
            print(f"  betti: {hodge.betti}")
            print(f"  sum rule b^k = sum h^(p,q): {'holds' if hodge.sum_rule_holds() else 'FAILS'}")
        if model.expected.get("strict") and model.dim == 6:
            su3 = su3_extract(model)
            print(f"  lambda^2 = {su3.lambda_sq.literal()}")
        print()
    print("overall:", "ok" if overall_ok else "FAILED")
    return 0 if overall_ok else 1


if __name__ == "__main__":
    sys.exit(main())
