"""Altered copies of a model for the robustness tests: a shifted structure
constant (breaks Jacobi or the nearly Kahler equations) and a scaled metric
(a coframe-covariant change that keeps every verdict)."""

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
