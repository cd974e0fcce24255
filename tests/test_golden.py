"""CLI reports pinned against the files under ``tests/golden/``.

The timing fields ``ms`` and ``total_ms`` are dropped; every other field,
witness strings and ``residual_approx`` included, must match exactly, and
so must the exit code.  After an intended change of output, regenerate the
files with ``PYTHONPATH=src python tests/test_golden.py`` and review the
diff.
"""

import contextlib
import io
import json
import pathlib

import pytest

from nkhodge.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "suite-torus6.json": (["suite", "builtin:torus6", "--report", "json"], 0),
    "suite-s3xs3-nk.json": (["suite", "builtin:s3xs3-nk", "--report", "json"], 0),
    "suite-kodaira-thurston.json": (["suite", "builtin:kodaira-thurston", "--report", "json"], 0),
    "suite-su2-four.json": (["suite", "builtin:su2-four", "--report", "json"], 0),
    "hodge-torus6.json": (["hodge", "builtin:torus6", "--report", "json"], 0),
    "hodge-s3xs3-nk.json": (["hodge", "builtin:s3xs3-nk", "--report", "json"], 0),
    "hodge-su2-four.json": (["hodge", "builtin:su2-four", "--report", "json"], 0),
    "order-s3xs3-nk-d.txt": (["order", "builtin:s3xs3-nk", "--op", "d", "--max", "3"], 0),
    "order-s3xs3-nk-dstar.txt": (["order", "builtin:s3xs3-nk", "--op", "dstar", "--max", "3"], 0),
    "order-s3xs3-nk-lambda_omega.txt": (
        ["order", "builtin:s3xs3-nk", "--op", "lambda_omega", "--max", "3"],
        0,
    ),
}


def _drop_timing(doc):
    if isinstance(doc, dict):
        return {k: _drop_timing(v) for k, v in doc.items() if k not in ("ms", "total_ms")}
    if isinstance(doc, list):
        return [_drop_timing(v) for v in doc]
    return doc


def _report(name: str) -> tuple[int, str]:
    argv, _ = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    if name.endswith(".json"):
        text = json.dumps(_drop_timing(json.loads(text)), indent=2) + "\n"
    return code, text


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, text = _report(name)
    assert code == CASES[name][1]
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name in sorted(CASES):
        (GOLDEN / name).write_text(_report(name)[1], encoding="utf-8")
        print(f"wrote {GOLDEN / name}")
