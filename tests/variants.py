"""Altered copies of a model for the robustness tests: a shifted structure
constant (breaks Jacobi or the nearly Kahler equations), a scaled metric
and a relabelled coframe (coframe-covariant changes that keep every
verdict)."""

from __future__ import annotations

from nkhodge.models import LieAlgebraModel
from nkhodge.scalars import ZERO, Scalar


def perturbed_structure(model: LieAlgebraModel, i: int, j: int, k: int, value: Scalar) -> LieAlgebraModel:
    """Copy of the model with c^k_{ij} shifted by ``value``."""
    structure = {key: dict(vals) for key, vals in model.structure.items()}
    slot = structure.setdefault((i, j), {})
    slot[k] = slot.get(k, ZERO) + value
    return LieAlgebraModel(
        model.name + "#perturbed",
        model.dim,
        model.ext_d,
        structure,
        model.metric,
        model.J,
        dict(model.expected),
    )


def scaled_metric(model: LieAlgebraModel, factor: Scalar) -> LieAlgebraModel:
    """Copy of the model with its metric multiplied by ``factor``."""
    return LieAlgebraModel(
        model.name + "#scaled",
        model.dim,
        model.ext_d,
        model.structure,
        [[v * factor for v in row] for row in model.metric],
        model.J,
        dict(model.expected),
        model.expected_failures,
    )


def relabelled(model: LieAlgebraModel, perm: list[int], signs: list[int]) -> LieAlgebraModel:
    """Copy of the model in the coframe u'^a = signs[a] u^perm[a]."""
    n = model.dim
    s = [Scalar(x, 0, 0, 0) for x in signs]
    structure = {}
    for b in range(n):
        for c in range(b + 1, n):
            for a in range(n):
                v = model.cval(perm[b], perm[c], perm[a])
                if not v.is_zero():
                    structure.setdefault((b, c), {})[a] = s[a] * s[b] * s[c] * v

    def moved(matrix):
        return [[s[a] * s[b] * matrix[perm[a]][perm[b]] for b in range(n)] for a in range(n)]

    return LieAlgebraModel(
        model.name + "#relabelled",
        n,
        model.ext_d,
        structure,
        moved(model.metric),
        moved(model.J),
        dict(model.expected),
        model.expected_failures,
    )
