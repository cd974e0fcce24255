"""Harmonic spaces, Betti numbers, and Hodge tables.

Harmonic spaces are exact kernels of the Hodge Laplacian [[d*, d]], computed
by sparse fraction-free elimination on the rows that ``linalg.transpose``
makes of its columns (a dense oracle in the tests recomputes them
independently).  Betti numbers are deliberately computed metric-free,
from ranks of d alone, so that the sum rule b^k = sum_{p+q=k} h^{p,q}
compares two genuinely different computations: harmonic dimensions against
homology of the complex.

Everything is computed in the orthogonalized presentation of the model
(the numbers are coframe-invariant); the basis forms that ``harmonic_space``
and ``harmonic_pq`` return are mapped back to the model's own coframe, and
``hodge_numbers`` reports only their dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bidegree import named_operator, pq_basis
from .exterior import Form, graded_lex_key
from .linalg import SparseRow, sparse_kernel, sparse_rank, transpose
from .operators import GradedOperator


@dataclass
class HodgeReport:
    h: list[list[int]]  # h[p][q]
    betti: list[int]

    def h_table(self) -> list[list[int]]:
        return [row[:] for row in self.h]

    def sum_rule_holds(self) -> bool:
        n = len(self.h) - 1
        for k in range(2 * n + 1):
            total = sum(
                self.h[p][k - p] for p in range(max(0, k - n), min(n, k) + 1)
            )
            if total != self.betti[k]:
                return False
        return True


def hodge_laplacian(model) -> GradedOperator:
    return named_operator(model, "lap:d")


def degree_masks(dim: int, k: int) -> list[int]:
    return sorted((m for m in range(1 << dim) if m.bit_count() == k), key=graded_lex_key)


def operator_degree_rows(op: GradedOperator, k: int, dim: int) -> tuple[list[SparseRow], list[int]]:
    """Row-sparse matrix of the degree-k block (columns indexed by mask order)."""
    masks = degree_masks(dim, k)
    index = {m: i for i, m in enumerate(masks)}
    return transpose((index[c], col) for c, col in op.cols.items() if c in index), masks


def harmonic_space(model, k: int) -> list[Form]:
    """Exact basis of the Delta_d-kernel in degree k (sparse elimination)."""
    comp = model.orthogonalized()

    def build():
        lap = hodge_laplacian(comp)
        rows, masks = operator_degree_rows(lap, k, comp.dim)
        vectors = sparse_kernel(rows, len(masks))
        return [Form(comp.dim, {masks[i]: v for i, v in vec.items()}) for vec in vectors]

    return [model.to_native(f) for f in comp._memo(f"harmonic:{k}", build)]


def harmonic_pq(model, p: int, q: int) -> list[Form]:
    """Exact basis of the Delta_d-harmonic (p,q)-forms."""
    comp = model.orthogonalized()

    def build():
        pqb = pq_basis(comp)
        masks = pqb.monomial_masks(p, q)
        lap = hodge_laplacian(comp)
        rows = transpose((j, lap.apply(pqb.monomial_form(m)).coeffs) for j, m in enumerate(masks))
        return [
            pqb.pq_coords_to_form({masks[j]: v for j, v in vec.items()})
            for vec in sparse_kernel(rows, len(masks))
        ]

    return [model.to_native(f) for f in comp._memo(f"harmonic_pq:{p},{q}", build)]


def betti_numbers(model) -> list[int]:
    """Homology dimensions of (invariant forms, d); no metric involved."""
    comp = model.orthogonalized()

    def build():
        d = comp.d()
        dim = comp.dim
        ranks = []
        for k in range(dim + 1):
            rows, masks = operator_degree_rows(d, k, dim)
            ranks.append(sparse_rank(rows))
        from math import comb

        out = []
        for k in range(dim + 1):
            rank_in = ranks[k - 1] if k >= 1 else 0
            out.append(comb(dim, k) - ranks[k] - rank_in)
        return out

    return comp._memo("betti", build)


def hodge_numbers(model) -> HodgeReport:
    from .models import nk_report

    report = nk_report(model)
    if not report.nearly_kahler:
        raise ValueError(
            f"not nearly Kahler: residual witness {report.witness}"
        )
    n = model.dim // 2
    h = [[len(harmonic_pq(model, p, q)) for q in range(n + 1)] for p in range(n + 1)]
    out = HodgeReport(h, betti_numbers(model))
    if not out.sum_rule_holds():
        raise AssertionError("harmonic (p,q) dimensions do not sum to Betti numbers")
    for p in range(n + 1):
        for q in range(n + 1):
            if h[p][q] != h[q][p]:
                raise AssertionError(f"h[{p}][{q}] != h[{q}][{p}]")
            if h[p][q] != h[n - p][n - q]:
                raise AssertionError(f"h table breaks Poincare symmetry at ({p},{q})")
    return out
