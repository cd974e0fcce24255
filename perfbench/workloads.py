"""The benchmark's workloads: seeded model presentations, rounds of verdicts, and
the comparison of every verdict with the hand-written answers in expected.json.

Only public nkhodge functions are called, always through their module
attribute at call time, so that the tracer's rebinding is seen.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import nkhodge.checks
import nkhodge.hodge
import nkhodge.models

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())
CATALOGUE_CHECKS = tuple(EXPECTED["catalogue_checks"])

# Each workload is one round of steps: ("suite", model, check ids) runs
# run_suite with that explicit list, ("hodge", model, ()) runs hodge_numbers.
WORKLOADS: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
    # every layer at dim 6, where per-call overheads dominate; includes the
    # negative control's eleven expected failures
    "catalogue-6d": (
        ("suite", "torus6", CATALOGUE_CHECKS),
        ("hodge", "torus6", ()),
        ("suite", "kodaira-thurston", CATALOGUE_CHECKS),
        ("suite", "s3xs3-nk", CATALOGUE_CHECKS),
        ("hodge", "s3xs3-nk", ()),
    ),
    # compose, adjoint, commutator, bidegree split and the order test on
    # 4096-column operators, with no kernel or rank call
    "su2-four-operators": (
        ("suite", "su2-four", ("SL2", "D2_SPLIT", "NK_MAIN", "ORDER_DSTAR")),
    ),
    # exact kernels and ranks: the Hodge table, Betti numbers, sum rule and
    # the invertibility corollary
    "su2-four-hodge": (
        ("hodge", "su2-four", ()),
        ("suite", "su2-four", ("VANISH_COR",)),
    ),
}


def hermitian_relabelling(model, rng: random.Random) -> tuple[list[int], list[int]]:
    """A random signed permutation (pi, s) of the coframe that fixes the
    metric and complex structure matrices: s_a s_b M[pi a][pi b] = M[a][b].

    Only such relabellings are drawn because the cost of the exact
    orthogonalization depends on how each metric-coupled pair is ordered: on
    su2-four, unrestricted signed permutations gave orthogonalized d with
    15360, 16896 or 18432 nonzeros and rounds 15% apart, so wall_s would
    follow the seed rather than the code.
    """
    n = model.dim
    perm: list[int] = []
    sign: list[int] = []

    def fits(c: int, s: int) -> bool:
        a = len(perm)
        for b, pb, sb in [(a, c, s)] + [(b, perm[b], sign[b]) for b in range(a)]:
            for m in (model.metric, model.J):
                x, y = m[c][pb], m[pb][c]
                if s * sb < 0:
                    x, y = -x, -y
                if x != m[a][b] or y != m[b][a]:
                    return False
        return True

    def extend() -> bool:
        if len(perm) == n:
            return True
        candidates = [(c, s) for c in range(n) if c not in perm for s in (1, -1)]
        rng.shuffle(candidates)
        for c, s in candidates:
            if fits(c, s):
                perm.append(c)
                sign.append(s)
                if extend():
                    return True
                perm.pop()
                sign.pop()
        return False

    if not extend():  # the identity always fits
        raise AssertionError("no relabelling found")
    return perm, sign


def relabel(model, rng: random.Random):
    """The same geometry in the coframe v^a = s_a u^(pi a), with (pi, s)
    from ``hermitian_relabelling``.

    Structure constants, metric and complex structure all transform as
    c'^c_ab = s_a s_b s_c c^(pi c)_(pi a, pi b) and g'_ab = s_a s_b g_(pi a, pi b).
    """
    n = model.dim
    perm, sign = hermitian_relabelling(model, rng)

    def signed(value, *idx):
        s = 1
        for i in idx:
            s *= sign[i]
        return value if s == 1 else -value

    structure = {}
    for a in range(n):
        for b in range(a + 1, n):
            vals = {}
            for c in range(n):
                v = model.cval(perm[a], perm[b], perm[c])
                if not v.is_zero():
                    vals[c] = signed(v, a, b, c)
            if vals:
                structure[(a, b)] = vals
    metric = [[signed(model.metric[perm[a]][perm[b]], a, b) for b in range(n)] for a in range(n)]
    jmat = [[signed(model.J[perm[a]][perm[b]], a, b) for b in range(n)] for a in range(n)]
    return nkhodge.models.LieAlgebraModel(
        model.name,
        n,
        model.ext_d,
        structure,
        metric,
        jmat,
        dict(model.expected),
        model.expected_failures,
    )


def make_models(workload: str, seed: int, round_index: int) -> dict:
    """Freshly relabelled, validated models for one round of a workload."""
    models = {}
    for _, name, _ in WORKLOADS[workload]:
        if name in models:
            continue
        rng = random.Random(f"{seed}/{round_index}/{name}")
        model = relabel(nkhodge.models.builtin_model(name), rng)
        report = nkhodge.models.validate_model(model)
        if not report.ok:
            raise RuntimeError(f"relabelled {name} failed validation:\n{report.summary()}")
        models[name] = model
    return models


class Tally:
    """Verdicts attempted and failed against the expected answers."""

    def __init__(self, expected: dict = EXPECTED):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def _miss(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.mismatches) < 20:
            self.mismatches.append(message)

    def expected_status(self, model_name: str, check_id: str) -> str:
        spec = self.expected["checks"][model_name]
        if check_id in spec["fail"]:
            return "fail"
        if check_id in spec["skip"]:
            return "skip"
        return "pass"

    def suite(self, model, check_ids: tuple[str, ...]) -> None:
        self.attempted += len(check_ids)
        try:
            report = nkhodge.checks.run_suite(model, list(check_ids))
        except Exception as exc:  # a raising suite fails every verdict it owed
            self._miss(len(check_ids), f"{model.name}: run_suite raised {exc!r}")
            return
        got = {res.check_id: res.status for res in report.results}
        for cid in check_ids:
            want = self.expected_status(model.name, cid)
            if got.get(cid) != want:
                self._miss(1, f"{model.name} {cid}: got {got.get(cid)}, expected {want}")

    def hodge(self, model) -> None:
        self.attempted += 1
        spec = self.expected["hodge"][model.name]
        n = model.dim // 2
        want = [[0] * (n + 1) for _ in range(n + 1)]
        for key, value in spec["h"].items():
            p, q = map(int, key.split(","))
            want[p][q] = value
        try:
            report = nkhodge.hodge.hodge_numbers(model)
        except Exception as exc:  # an exception is a failed verdict
            self._miss(1, f"{model.name}: hodge_numbers raised {exc!r}")
            return
        if report.h != want or report.betti != spec["betti"] or not report.sum_rule_holds():
            self._miss(1, f"{model.name}: hodge table {report.h}, betti {report.betti}")


def run_round(workload: str, models: dict, tally: Tally) -> None:
    for action, name, check_ids in WORKLOADS[workload]:
        if action == "suite":
            tally.suite(models[name], check_ids)
        else:
            tally.hodge(models[name])
