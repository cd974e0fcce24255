"""Outside-in span tracer for the nkhodge layers.

The tracer wraps public functions and a few methods of each package module
from outside the package. A module-level function is rebound under every
alias that any loaded ``nkhodge`` module holds (``checks`` imports
``adjoint``, ``sparse_kernel`` and others by name, so patching only the
defining module would silently drop those spans). Spans are kept in memory
as [name, start, end, parent index, counts] and written out when the run ends.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name); a span name is
# "<layer>.<operation>" and the layer is the package module's name.
WRAPS = (
    ("nkhodge.exterior", "Form.wedge", "exterior.wedge"),
    ("nkhodge.operators", "GradedOperator.compose", "operators.compose"),
    ("nkhodge.operators", "GradedOperator.__add__", "operators.add"),
    ("nkhodge.operators", "GradedOperator.apply", "operators.apply"),
    ("nkhodge.operators", "adjoint", "operators.adjoint"),
    ("nkhodge.operators", "graded_commutator", "operators.commutator"),
    ("nkhodge.operators", "laplacian", "operators.laplacian"),
    ("nkhodge.operators", "algebraic_order_at_most", "operators.order"),
    ("nkhodge.operators", "mult_operator", "operators.mult_operator"),
    ("nkhodge.operators", "derivation_from_one_forms", "operators.derivation"),
    ("nkhodge.bidegree", "differential_split", "bidegree.split"),
    ("nkhodge.bidegree", "pq_basis", "bidegree.pq_basis"),
    ("nkhodge.bidegree", "decompose_form", "bidegree.decompose"),
    ("nkhodge.bidegree", "lefschetz_triple", "bidegree.lefschetz"),
    ("nkhodge.bidegree", "d_c", "bidegree.d_c"),
    ("nkhodge.bidegree", "j_operator", "bidegree.j_operator"),
    ("nkhodge.linalg", "sparse_kernel", "linalg.kernel"),
    ("nkhodge.linalg", "sparse_rank", "linalg.rank"),
    ("nkhodge.hodge", "harmonic_pq", "hodge.harmonic_pq"),
    ("nkhodge.hodge", "harmonic_space", "hodge.harmonic_space"),
    ("nkhodge.hodge", "betti_numbers", "hodge.betti"),
    ("nkhodge.hodge", "hodge_laplacian", "hodge.laplacian"),
    ("nkhodge.hodge", "hodge_numbers", "hodge.hodge_numbers"),
    ("nkhodge.models", "builtin_model", "models.builtin"),
    ("nkhodge.models", "validate_model", "models.validate"),
    ("nkhodge.models", "LieAlgebraModel.orthogonalized", "models.ortho"),
    ("nkhodge.models", "nearly_kahler_residual", "models.nk_residual"),
    ("nkhodge.models", "su3_extract", "models.su3_extract"),
    ("nkhodge.checks", "run_suite", "checks.run_suite"),
    # one span per check, named after its id
    ("nkhodge.checks", "run_check", lambda args, kwargs: "checks." + args[1]),
)

# exact size counts taken from a call's arguments and result
COUNTERS = {
    "operators.compose": lambda args, result: {"operators.compose_out_nnz": result.nnz()},
    "linalg.kernel": lambda args, result: {
        "linalg.rows_in": len(args[0]),
        "linalg.nullity_sum": len(result),
    },
    "linalg.rank": lambda args, result: {"linalg.rows_in": len(args[0])},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name):
        spans, open_ = self.spans, self._open
        label = name if callable(name) else (lambda args, kwargs: name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = label(args, kwargs)
            index = len(spans)
            span = [span_name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            counter = COUNTERS.get(span_name)
            if counter is not None:
                span[4] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, _, _ in WRAPS:
            importlib.import_module(module_name)
        package = [m for n, m in list(sys.modules.items()) if n == "nkhodge" or n.startswith("nkhodge.")]
        for module_name, attr, name in WRAPS:
            module = sys.modules[module_name]
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[member]
                self._rebind(owner, member, original, self.wrap(original, name))
                continue
            original = getattr(module, member)
            wrapped = self.wrap(original, name)
            for mod in package:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, alias, original, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so the children of a span are disjoint and
    lie inside it; their summed durations are the part of it they cover.
    """
    own = [span[2] - span[1] for span in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def in_windows(spans: list[list], windows: list[tuple[float, float]]) -> list[int]:
    """Indices of the spans that lie inside one of the sorted, disjoint windows."""
    starts = [lo for lo, _ in windows]
    inside = []
    for i, (_, start, end, _, _) in enumerate(spans):
        w = bisect.bisect_right(starts, start) - 1
        if w >= 0 and end <= windows[w][1]:
            inside.append(i)
    return inside


# per-layer metrics reported from the spans: "<span>_self_s" and "<span>_calls"
SELF_METRICS = (
    "exterior.wedge",
    "operators.compose", "operators.add", "operators.apply", "operators.adjoint",
    "operators.commutator", "operators.order", "operators.mult_operator",
    "bidegree.split", "bidegree.pq_basis", "bidegree.decompose", "bidegree.lefschetz",
    "linalg.kernel", "linalg.rank",
    "hodge.harmonic_pq", "hodge.betti", "hodge.laplacian",
    "models.ortho", "models.nk_residual",
)
CALL_METRICS = (
    "exterior.wedge", "operators.compose", "operators.apply", "operators.adjoint",
    "operators.order", "linalg.kernel", "linalg.rank",
)
COUNT_METRICS = ("operators.compose_out_nnz", "linalg.rows_in", "linalg.nullity_sum")


def layer_metrics(spans: list[list], windows: list[tuple[float, float]], check_ids) -> dict[str, float]:
    """Per-layer metrics of a traced run whose rounds ran in ``windows``.

    Self times, calls and counts are per round, over the spans inside the
    rounds; ``checks.<ID>_s`` is a check's inclusive time per round.
    ``models.validate_self_s`` is the validation time of set-up, before the
    first round. ``trace.untraced_s`` is the round time that no span covers,
    and ``trace.accounted_s`` adds it to all self times: it equals the summed
    round time exactly when the spans nest properly.
    """
    own = self_times(spans)
    rounds = len(windows)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    covered = 0.0
    inside = in_windows(spans, windows)
    for i in inside:
        name, start, end, parent, sizes = spans[i]
        self_s[name] += own[i]
        calls[name] += 1
        inclusive[name] += end - start
        if parent < 0:
            covered += end - start
        for key, value in (sizes or {}).items():
            counts[key] += value
    out = {f"{name}_self_s": self_s[name] / rounds for name in SELF_METRICS}
    out.update({f"{name}_calls": calls[name] / rounds for name in CALL_METRICS})
    out.update({key: counts[key] / rounds for key in COUNT_METRICS})
    out.update({f"checks.{cid}_s": inclusive[f"checks.{cid}"] / rounds for cid in check_ids})
    out["checks.self_s"] = sum(v for k, v in self_s.items() if k.startswith("checks.")) / rounds
    out["models.validate_self_s"] = sum(
        own[i] for i, span in enumerate(spans)
        if span[0] == "models.validate" and span[2] <= windows[0][0]
    )
    untraced = sum(hi - lo for lo, hi in windows) - covered
    out["trace.untraced_s"] = untraced / rounds
    out["trace.accounted_s"] = (sum(own[i] for i in inside) + untraced) / rounds
    return out
