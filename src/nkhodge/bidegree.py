"""Bidegree structure: (p,q) projections, the split of d, and the sl2 triple.

The (1,0)-coframe is built from P^{1,0} = (Id - iJ)/2 on degree one.  One
greedy scan with ``linalg.solve`` goes through its images of the coframe
basis in order: an image outside the span of those kept so far is kept as
the next generator, any other gets its exact coordinates in them.
Monomials in the chosen (1,0)/(0,1) generators give bases of every
Lambda^{p,q}; expanding basis forms through them yields the bidegree pieces
of any form without any eigen-decomposition.  Monomials, coordinate expansions and the J action
are all images under algebra maps of the coframe, built lazily by
``wedge_image``.

``differential_split`` produces the four components with bidegrees
(2,-1), (1,0), (0,1), (-1,2).  Each component is a derivation, so it is
reconstructed from the bidegree pieces of d on the (1,0)/(0,1) coframe, in
every dimension; the test suite checks it against the literal
projector-sandwich definition on the small models.  d^c = J^{-1} d J is
likewise a derivation built from its coframe values (``twisted_differential``),
shared by ``d_c`` and the DC_DEF check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exterior import Form, wedge_image, wedge_map
from .linalg import solve
from .operators import GradedOperator, adjoint, derivation_from_one_forms, mult_operator
from .scalars import I, ONE, Scalar, rational


class PQBasis:
    """Chosen (1,0)/(0,1) coframe generators and everything indexed by them."""

    def __init__(self, model):
        dim = model.dim
        n = dim // 2
        self.dim = dim
        self.n = n
        half_i = Scalar(0, 0, -1, 0, 2)  # -i/2
        j_rows = model.j_one_form_rows()
        self.eta_all = [
            Form.basis(dim, 1 << i).scale(Scalar(1, 0, 0, 0, 2)) + j_rows[i].scale(half_i)
            for i in range(dim)
        ]
        # greedy scan: keep eta_all[i] when it is outside the span of the
        # forms kept so far, otherwise record its coordinates in them
        self.chosen: list[int] = []
        coords: list[dict[int, Scalar]] = []
        for i, f in enumerate(self.eta_all):
            x = solve([self.eta_all[c].coeffs for c in self.chosen], f.coeffs)
            if x is None:
                x = {len(self.chosen): ONE}
                self.chosen.append(i)
            coords.append(x)
        if len(self.chosen) != n:
            raise ValueError("(1,0)-coframe does not have the expected rank")
        self.eta = [self.eta_all[i] for i in self.chosen]
        self.eta_bar = [f.conjugate() for f in self.eta]
        # images of the generators: eta^a for bit a, conj(eta^a) for bit n + a
        self._generators = self.eta + self.eta_bar
        # u^i = eta_all[i] + conj(eta_all[i]) in eta-monomial coordinates
        self._u_in_pq = []
        for row in coords:
            u = {1 << a: s for a, s in row.items()}
            u.update({1 << (n + a): s.conjugate() for a, s in row.items()})
            self._u_in_pq.append(Form(dim, u))
        self._pq_form_table: dict[int, Form] = {}
        self._col_cache: dict[int, Form] = {}

    # -- monomial indexing --------------------------------------------------
    # bit a (a < n): generator eta^a; bit n + a: generator conj(eta^a)

    def bidegree_of_mask(self, pqmask: int) -> tuple[int, int]:
        low = pqmask & ((1 << self.n) - 1)
        return low.bit_count(), (pqmask >> self.n).bit_count()

    def monomial_masks(self, p: int, q: int) -> list[int]:
        if not (0 <= p <= self.n and 0 <= q <= self.n):
            raise ValueError(f"bidegree ({p},{q}) out of range")
        out = []
        for pqmask in range(1 << self.dim):
            if self.bidegree_of_mask(pqmask) == (p, q):
                out.append(pqmask)
        return out

    def monomial_form(self, pqmask: int) -> Form:
        """Real-coordinate expansion of one eta-monomial (cached)."""
        return wedge_image(self._generators, pqmask, self._pq_form_table)

    def form_to_pq(self, form: Form) -> dict[int, Scalar]:
        """Coordinates of a form in the eta-monomial basis."""
        return wedge_map(self._u_in_pq, form, self._col_cache).coeffs

    def pq_coords_to_form(self, coords: dict[int, Scalar]) -> Form:
        out = Form.zero(self.dim)
        for pqmask, v in coords.items():
            out = out + self.monomial_form(pqmask).scale(v)
        return out

    def basis_forms(self, p: int, q: int) -> list[Form]:
        return [self.monomial_form(m) for m in self.monomial_masks(p, q)]


def pq_basis(model) -> PQBasis:
    return model._memo("pq_basis", lambda: PQBasis(model))


def decompose_form(model, form: Form) -> dict[tuple[int, int], Form]:
    """Split a form into its pure-bidegree pieces (zero pieces omitted)."""
    pq = pq_basis(model)
    groups: dict[tuple[int, int], dict[int, Scalar]] = {}
    for pqmask, v in pq.form_to_pq(form).items():
        groups.setdefault(pq.bidegree_of_mask(pqmask), {})[pqmask] = v
    return {bid: pq.pq_coords_to_form(coords) for bid, coords in groups.items()}


# ---------------------------------------------------------------------------
# J acting multiplicatively on forms

def j_apply(model, form: Form) -> Form:
    """(J alpha)(X_1,...,X_k) = alpha(J X_1,...,J X_k), extended linearly."""
    rows = model._memo("j_rows", model.j_one_form_rows)
    return wedge_map(rows, form, model._memo("j_table", dict))


def j_inverse_apply(model, form: Form) -> Form:
    """J^{-1} = (-1)^k J on degree k (since J^2 = (-1)^k there)."""
    out = Form.zero(model.dim)
    for k in range(model.dim + 1):
        piece = Form(model.dim, {m: v for m, v in form.coeffs.items() if m.bit_count() == k})
        if piece.is_zero():
            continue
        img = j_apply(model, piece)
        out = out + (img if k % 2 == 0 else -img)
    return out


def j_operator(model) -> GradedOperator:
    """J as an explicit matrix (small models; the action is used elsewhere)."""

    def build():
        rows = model._memo("j_rows", model.j_one_form_rows)
        table = model._memo("j_table", dict)
        cols = {m: dict(wedge_image(rows, m, table).coeffs) for m in range(1 << model.dim)}
        return GradedOperator(model.dim, cols, 0, check=False)

    return model._memo("j_operator", build)


# ---------------------------------------------------------------------------
# the split of d

@dataclass
class DifferentialSplit:
    mu: GradedOperator
    del_: GradedOperator
    delbar: GradedOperator
    mubar: GradedOperator

    def components(self) -> dict[str, GradedOperator]:
        return {"mu": self.mu, "del": self.del_, "delbar": self.delbar, "mubar": self.mubar}

    def total(self) -> GradedOperator:
        return self.mu + self.del_ + self.delbar + self.mubar


def differential_split(model) -> DifferentialSplit:
    """The four components of d; each is the derivation with its coframe values."""

    def build():
        pq = pq_basis(model)
        d = model.d()
        dim = model.dim
        zero = Form.zero(dim)
        mu_im, del_im, delbar_im, mubar_im = [], [], [], []
        for i in range(dim):
            eta = pq.eta_all[i]
            d_eta = decompose_form(model, d.apply(eta))
            d_etabar = decompose_form(model, d.apply(eta.conjugate()))
            mu_im.append(d_etabar.get((2, 0), zero))
            del_im.append(d_eta.get((2, 0), zero) + d_etabar.get((1, 1), zero))
            delbar_im.append(d_eta.get((1, 1), zero) + d_etabar.get((0, 2), zero))
            mubar_im.append(d_eta.get((0, 2), zero))
        split = DifferentialSplit(
            *(derivation_from_one_forms(dim, im) for im in (mu_im, del_im, delbar_im, mubar_im))
        )
        if split.total() != d:
            raise AssertionError("bidegree split does not reassemble d")
        if split.mubar != split.mu.conjugated() or split.delbar != split.del_.conjugated():
            raise AssertionError("bidegree split breaks conjugation symmetry")
        return split

    return model._memo("split", build)


# ---------------------------------------------------------------------------
# derived operators

def twisted_differential(model) -> GradedOperator:
    """J^{-1} d J: the derivation with coframe values J^{-1} d J u^i."""

    def build():
        dim = model.dim
        images = []
        for i in range(dim):
            ju = j_apply(model, Form.basis(dim, 1 << i))
            images.append(j_inverse_apply(model, model.d().apply(ju)))
        return derivation_from_one_forms(dim, images)

    return model._memo("jdj", build)


def d_c(model) -> GradedOperator:
    """J^{-1} d J, cross-checked against i(mu - del + delbar - mubar)."""

    def build():
        twisted = twisted_differential(model)
        split = differential_split(model)
        alt = (split.mu - split.del_ + split.delbar - split.mubar).scale(I)
        if twisted != alt:
            raise AssertionError("J^{-1} d J disagrees with i(mu - del + delbar - mubar)")
        return twisted

    return model._memo("d_c", build)


def counting_operator(model) -> GradedOperator:
    n = model.dim // 2
    return GradedOperator.diagonal(model.dim, lambda m: rational(m.bit_count() - n))


def lefschetz_triple(model) -> tuple[GradedOperator, GradedOperator, GradedOperator]:
    def build():
        l_op = mult_operator(model.omega())
        lam = adjoint(l_op, model.gram())
        return (l_op, lam, counting_operator(model))

    return model._memo("lefschetz", build)
