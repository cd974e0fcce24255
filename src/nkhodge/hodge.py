"""Harmonic spaces, Betti numbers, and Hodge tables.

Every kernel and rank here is one exact elimination on a block of an
operator's columns, read straight off its integer store
(``GradedOperator.entry_rows``, no Scalar built).  Harmonic spaces are
exact kernels of the Hodge Laplacian [[d*, d]] (a dense oracle in the
tests recomputes them independently).  Betti numbers are deliberately
computed metric-free, from ranks of d alone (``linalg.pivot_columns``),
taken by clearing, from the top degree down: the rows of d on degree k at
the pivot columns Q of d on degree k + 1 are combinations of the other
rows, because the pivot rows are invertible on Q and kill the image of d,
so the rank of d on degree k is that of its rows outside Q.  The lemma
assumes d d = 0 and nothing else (Chen and Kerber, *Persistent homology
computation with a twist*, EuroCG 2011, use it for boundary matrices).
Only degrees n down to n/2 are ranked: by Poincare duality for unimodular
Lie algebra cohomology (Chevalley and Eilenberg, *Trans. AMS* 1948) the
wedge pairing into Lambda^n makes d on degree k the signed transpose of d
on degree n - 1 - k, so their ranks agree.  Its one hypothesis is d = 0 on
Lambda^{n-1} (unimodularity), and that rank is among those taken, so a
model without it raises AssertionError; the test suite compares the
result with every block ranked in full.

The harmonic (p,q)-forms come from S = Delta_mu + Delta_del + Delta_delbar
+ Delta_mubar, the operator of HODGE_ABCD's lemma, one type at a time.
``harmonic_pq`` is ker S on Lambda^{p,q}: the kernel of the columns of
type (p,q) of F S E, the matrix of S in the eta-monomial basis
(``PQBasis.frame``), with every row kept, so it assumes nothing about S
preserving type.  The kernel vectors are mapped back through the columns
of E they need.  For a form x of pure type (p,q), the four components of
d x, and of d* x, have four different types, so Delta_d x = 0 exactly
when every component and adjoint kills x, which is S x = 0 (the
Hermitian product is positive definite): ker S on Lambda^{p,q} is the
Delta_d-harmonic (p,q)-forms on every model.  ker S is the whole
harmonic space of degree k exactly when its dimension is b_k, since
dim ker Delta_d = b_k (the finite-dimensional Hodge theorem): the sum
rule b^k = sum_{p+q=k} h^{p,q}, which compares two computations that
share only d, nullities of S against ranks of d.  HODGE_ABCD decides
its (a), (b) and (c) on that count, and takes ``harmonic_space`` only
in a degree where it fails.

S is built in the eta-frame only.  Delta_delbar and Delta_mubar are the
conjugates of Delta_del and Delta_mu, so S is the term list X + conj X
with X = [[mu*, mu]] + [[del*, del]], of order <= 2, held by its Koszul
coefficients (``operators.bracket_sum``), conj X by their conjugates, and
read on its columns of degree <= 2 by the rule of low columns
(``operators.requirement_columns``): X keeps the columns its products
gave, and conj X sums its own.  X's products read mu* and del* on their
columns of degree <= 3 only, which the adjoints by order sum from the
columns of degree <= 1 of mu and del (``operators.adjoint_by_order``), so
no full adjoint is built.  The frame
is composed on E's columns of degree <= 2 and rebuilt by one
reconstruction, and no Laplacian of S is built in the u-coframe.  Both
kernels are taken by one helper (``_block_kernel``).

A Hodge number needs no kernel vector: ``h_pq`` is the number of columns
of type (p,q) of the frame minus the rank of that block
(``linalg.pivot_columns``), or the length of a ``harmonic_pq`` basis that
is memoized already.  ``hodge_numbers``, VANISH_COR and NK6_VANISH read
it; ``harmonic_pq`` takes the kernel for the callers that need the forms.

Everything is computed in the orthogonalized presentation of the model
(the numbers are coframe-invariant); the basis forms that ``harmonic_space``
and ``harmonic_pq`` return are mapped back to the model's own coframe, and
``hodge_numbers`` reports only dimensions, which it counts in the
orthogonalized presentation, with no form built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .bidegree import named_operator, pq_basis
from .exterior import Form, graded_lex_key
from .linalg import pivot_columns, sparse_kernel
from .operators import GradedOperator, algebra_map_apply, bracket_sum, requirement_columns
from .scalars import ONE


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


def _block_kernel(op: GradedOperator, masks: list[int]) -> list[Form]:
    """A basis of the kernel of the block of op's columns at ``masks``
    (every row kept), each vector a form with coordinate j at masks[j]."""
    rows, d = op.entry_rows(masks)
    return [Form(op.dim, {masks[j]: v for j, v in vec.items()}) for vec in sparse_kernel(rows, d, len(masks))]


def _native(model, comp, forms: list[Form]) -> list[Form]:
    """Forms of the orthogonalized presentation ``comp`` in the coframe of
    ``model``: a new list of the same forms when the two are one model."""
    return list(forms) if comp is model else [model.to_native(f) for f in forms]


def harmonic_space(model, k: int) -> list[Form]:
    """Exact basis of the Delta_d-kernel in degree k (sparse elimination)."""
    comp = model.orthogonalized()

    def build():
        return _block_kernel(hodge_laplacian(comp), degree_masks(comp.dim, k))

    return _native(model, comp, comp._memo(f"harmonic:{k}", build))


def s_low_columns(model) -> tuple[GradedOperator, int]:
    """(S on its columns of degree <= r, r) for S = Delta_mu + Delta_del +
    Delta_delbar + Delta_mubar: the term list X + conj X with X =
    [[mu*, mu]] + [[del*, del]] held by its Koszul coefficients
    (``requirement_columns``), since the barred Laplacians are the
    conjugates of the unbarred ones."""
    x = bracket_sum([tuple(named_operator(model, n) for n in (f"adj:{c}", c)) for c in ("mu", "del")])
    return requirement_columns([(ONE, x), (ONE, x.conjugated())])


def s_frame(model) -> GradedOperator:
    """F S E, S in the eta-monomial basis of the orthogonalized presentation,
    built from S's columns of degree <= 2 and memoized.  Every block of it
    is read (``h_pq`` ranks all types, ``harmonic_pq`` takes their
    kernels), so its store is built at once, by one scatter of the Koszul
    coefficients, as ``compose`` builds its left factor's, rather than
    summed column by column."""
    comp = model.orthogonalized()

    def build():
        frame = pq_basis(comp).frame(*s_low_columns(comp))
        frame.coords  # the store, scattered now
        return frame

    return comp._memo("frame:S", build)


def harmonic_pq(model, p: int, q: int) -> list[Form]:
    """Exact basis of ker S on Lambda^{p,q}, the Delta_d-harmonic
    (p,q)-forms: the kernel of the columns of type (p,q) of ``s_frame``,
    every row kept, mapped back through E."""
    n = model.dim // 2
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range")
    comp = model.orthogonalized()

    def build():
        pqb = pq_basis(comp)
        return algebra_map_apply(pqb.generators, _block_kernel(s_frame(comp), pqb.monomial_masks(p, q)))

    return _native(model, comp, comp._memo(f"harmonic_pq:{p},{q}", build))


def h_pq(model, p: int, q: int) -> int:
    """h^{p,q} = dim ker S on Lambda^{p,q}: the number of columns of type
    (p,q) of ``s_frame`` minus the rank of that block
    (``linalg.pivot_columns``), with no kernel vector and no map through E;
    the length of the ``harmonic_pq`` basis when that is memoized already.
    Memoized."""
    n = model.dim // 2
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range")
    comp = model.orthogonalized()

    def build():
        basis = comp._cache.get(f"harmonic_pq:{p},{q}")
        if basis is not None:
            return len(basis)
        masks = pq_basis(comp).monomial_masks(p, q)
        return len(masks) - len(pivot_columns(*s_frame(comp).entry_rows(masks)))

    return comp._memo(f"h:{p},{q}", build)


def betti_numbers(model) -> list[int]:
    """Homology dimensions of (invariant forms, d), b_k = C(n, k) - r_k -
    r_{k-1} with r_k the rank of d on degree k; no metric involved.

    The ranks of the top half, degrees n down to n/2, are taken from the
    top degree down, each on the rows that the pivots of the degree above
    leave (clearing).  With Q the pivot columns of d on degree k + 1,
    every (k+1)-form x = d y has x_Q fixed by the rest of x, since the
    pivot rows kill it (d d = 0) and are invertible on Q; so the rows Q of
    d on degree k are combinations of the others, and its rank is that of
    the others.  d d = 0 is the only assumption of the clearing, the one
    that b_k = C(n, k) - r_k - r_{k-1} makes too, and ``validate_model``
    certifies it as a matrix identity.  Each block hands C(n, k+1) -
    r_{k+1} rows to the elimination, all but b_{k+1} of them independent.

    The ranks of the lower half are read off by Poincare duality for
    unimodular Lie algebra cohomology (Chevalley and Eilenberg, Trans.
    AMS 1948): when d vanishes on Lambda^{n-1}, d(a ^ b) = 0 for every
    a of degree k and b of degree n - 1 - k, so the wedge pairing
    Lambda^{k+1} x Lambda^{n-1-k} -> Lambda^n, which is perfect, makes
    d_k the signed transpose of d_{n-1-k}, and r_k = r_{n-1-k}.  That
    hypothesis is unimodularity (``validate_model`` checks it), and
    r_{n-1} is ranked with the top half anyway: a nonzero r_{n-1} raises
    AssertionError instead of a wrong vector."""
    comp = model.orthogonalized()

    def build():
        d, dim = comp.d(), comp.dim
        by_degree: list[list[int]] = [[] for _ in range(dim + 1)]
        for c in d.coords:
            by_degree[c.bit_count()].append(c)
        ranks = [0] * (dim + 1)
        cleared: set[int] = set()
        for k in range(dim, dim // 2 - 1, -1):
            masks = by_degree[k]
            pivots = pivot_columns(*d.entry_rows(masks, cleared))
            ranks[k] = len(pivots)
            cleared = {masks[j] for j in pivots}
        if ranks[dim - 1]:
            raise AssertionError(
                f"d has rank {ranks[dim - 1]} on degree {dim - 1}: the model is not unimodular, "
                "so the ranks of d do not satisfy Poincare duality"
            )
        for k in range(dim // 2):
            ranks[k] = ranks[dim - 1 - k]
        return [comb(dim, k) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(dim + 1)]

    return comp._memo("betti", build)


def hodge_numbers(model) -> HodgeReport:
    from .models import nk_report

    report = nk_report(model)
    if not report.nearly_kahler:
        raise ValueError(
            f"not nearly Kahler: residual witness {report.witness}"
        )
    n = model.dim // 2
    # dimensions are coframe-invariant: counted in the orthogonalized presentation
    comp = model.orthogonalized()
    h = [[h_pq(comp, p, q) for q in range(n + 1)] for p in range(n + 1)]
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
