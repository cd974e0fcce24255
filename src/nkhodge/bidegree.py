"""Bidegree structure: type through D_J, the split of d, and the sl2 triple.

Type is read from J alone.  D_J, the derivation extending J from 1-forms
(``j_derivation``), acts on Lambda^{p,q} as i(p - q), and within one degree
k the value p - q fixes (p,q).  Only its action is kept
(``operators.DerivationAction``): a column is built the first time a form
meets it, so the degrees that are never typed cost nothing.
``off_type(model, form, p, q)`` = D_J form - i(p - q) form is the type
test of a form: zero exactly when a (p+q)-form has type (p,q).
``decompose_form``
takes, in each degree k with m types, the D_J eigencomponents from the
powers D_J^j form, j < m, through the inverse Vandermonde matrix of the
eigenvalues i(2p - k).

``PQBasis`` keeps the (1,0)-coframe eta = P^{1,0} u = (u - iJu)/2.  A greedy
scan with ``linalg.solve`` keeps, in order, each image outside the span of
those kept so far.  Monomials in the chosen (1,0)/(0,1) generators are
bases of every Lambda^{p,q}; in that eta-frame the type of a form is read
off the bits of its coordinates.  J_PQ and DIM6_EIGEN iterate over the
monomials as forms, built lazily by ``wedge_image``.  ``frame_blocks`` is
the change of basis itself, degree by degree on the integer store: E, the
algebra map of the generators (its column m is the monomial m), and
F = E^{-1}, the algebra map of each u^i to its coordinates in the
generators.  A degree-0 operator P preserves every Lambda^{p,q} exactly
when each column of type (p,q) of F P E has rows of type (p,q) only, which
is how VANISH_COR reads it; no frame is kept.

``differential_split`` produces the four components with bidegrees
(2,-1), (1,0), (0,1), (-1,2).  d is real and J is real, so delbar and mubar
are the complex conjugates of del and mu.  Each component is a derivation:
mu and del are reconstructed from the (0,2) and (2,0) + (1,1) pieces of
d eta on the (1,0)-coframe (u^i = eta + conj eta), in every dimension, and
delbar, mubar are their conjugates; the test suite checks the split against
the literal projector-sandwich definition on the small models and against
four separate derivations on every built-in.  d^c = J^{-1} d J is likewise
a derivation built from its coframe values (``twisted_differential``),
shared by ``d_c`` and the DC_DEF check.

``named_operator`` builds every derived operator the catalogue names: d,
the four components, L = L_omega, L_mu_omega and
L_mubar_omega, and for each of them ``adj:<name>`` (the metric adjoint) and
``lap:<name>`` (the Laplacian from that adjoint).  Each name has one
builder and is its own memo key, so an adjoint is built once and no key
can hold another operator's answer.  The barred half is obtained by
conjugation: L_mubar_omega is conj L_mu_omega (omega is real), and the
adjoint and Laplacian of delbar, mubar and L_mubar_omega are the
conjugates of those of del, mu and L_mu_omega, so only unbarred operators
reach ``adjoint``.  ``lefschetz_triple`` is (L, adj:L, H).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .exterior import Form, wedge_image, wedge_map
from .linalg import add_scaled, inverse, solve
from .operators import (
    DerivationAction,
    GradedOperator,
    adjoint,
    algebra_map_blocks,
    derivation_from_one_forms,
    laplacian,
    mult_operator,
)
from .scalars import I, ZERO, Scalar, rational


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
        # forms kept so far
        self.chosen: list[int] = []
        for i, f in enumerate(self.eta_all):
            if solve([self.eta_all[c].coeffs for c in self.chosen], f.coeffs) is None:
                self.chosen.append(i)
        if len(self.chosen) != n:
            raise ValueError("(1,0)-coframe does not have the expected rank")
        self.eta = [self.eta_all[i] for i in self.chosen]
        self.eta_bar = [f.conjugate() for f in self.eta]
        # images of the generators: eta^a for bit a, conj(eta^a) for bit n + a
        self._generators = self.eta + self.eta_bar
        self._pq_form_table: dict[int, Form] = {}

    # -- monomial indexing --------------------------------------------------
    # bit a (a < n): generator eta^a; bit n + a: generator conj(eta^a)

    def bidegree_of_mask(self, pqmask: int) -> tuple[int, int]:
        low = pqmask & ((1 << self.n) - 1)
        return low.bit_count(), (pqmask >> self.n).bit_count()

    def monomial_masks(self, p: int, q: int) -> list[int]:
        """The masks with p low and q high bits, increasing."""
        n = self.n
        if not (0 <= p <= n and 0 <= q <= n):
            raise ValueError(f"bidegree ({p},{q}) out of range")
        low = [m for m in range(1 << n) if m.bit_count() == p]
        high = [m << n for m in range(1 << n) if m.bit_count() == q]
        return [h | m for h in high for m in low]

    def monomial_form(self, pqmask: int) -> Form:
        """Real-coordinate expansion of one eta-monomial (cached)."""
        return wedge_image(self._generators, pqmask, self._pq_form_table)

    def basis_forms(self, p: int, q: int) -> list[Form]:
        return [self.monomial_form(m) for m in self.monomial_masks(p, q)]

    def frame_blocks(self):
        """(E_k, F_k) for k = 0, ..., dim, one degree at a time and kept
        nowhere: E is the algebra map of the generators, so column m of E is
        literally ``monomial_form(m)``, and F = E^{-1} the algebra map of u^i
        to its coordinates in the generators (row i of the inverse of the
        generator matrix, bit a for generator a)."""
        dim = self.dim
        matrix = [[g.coeffs.get(1 << i, ZERO) for i in range(dim)] for g in self._generators]
        dual = [Form.one_form(dim, row) for row in inverse(matrix)]
        return zip(algebra_map_blocks(dim, self._generators), algebra_map_blocks(dim, dual))


def pq_basis(model) -> PQBasis:
    return model._memo("pq_basis", lambda: PQBasis(model))


def j_derivation(model) -> DerivationAction:
    """D_J, the derivation extending J from 1-forms; i(p - q) on Lambda^{p,q}.

    Only its action is kept, column by column as forms meet it: the callers
    apply it to forms of degrees 2, 3 and the harmonic degrees."""
    return model._memo("j_derivation", lambda: DerivationAction(model.dim, model.j_one_form_rows()))


def off_type(model, form: Form, p: int, q: int) -> Form:
    """D_J form - i(p - q) form: zero exactly when a (p+q)-form has type (p,q)."""
    return j_derivation(model).apply(form) - form.scale(I * rational(p - q))


@functools.cache
def _types_from_powers(k: int, n: int) -> tuple[tuple[int, list[Scalar]], ...]:
    """(p, row p of V^{-1}) for the types (p, k - p) of degree k, p increasing,
    where V[j][p] = (i(2p - k))^j: the row takes the powers D_J^j form to the
    piece of type (p, k - p)."""
    types = range(max(0, k - n), min(n, k) + 1)
    vandermonde = [[(I * rational(2 * p - k)) ** j for p in types] for j in range(len(types))]
    return tuple(zip(types, inverse(vandermonde)))


def decompose_form(model, form: Form) -> dict[tuple[int, int], Form]:
    """Split a form into its pure-bidegree pieces (zero pieces omitted), by
    degree and then increasing p.

    In degree k the pieces x_p are the D_J eigencomponents for i(2p - k), so
    D_J^j form = sum_p (i(2p - k))^j x_p for j below the number of types;
    the inverse Vandermonde matrix solves for the x_p.
    """
    n = model.dim // 2
    out: dict[tuple[int, int], Form] = {}
    for k in sorted({m.bit_count() for m in form.coeffs}):
        powers = [Form(form.dim, {m: v for m, v in form.coeffs.items() if m.bit_count() == k})]
        rows = _types_from_powers(k, n)
        while len(powers) < len(rows):
            powers.append(j_derivation(model).apply(powers[-1]))
        for p, row in rows:
            part: dict[int, Scalar] = {}
            for w, power in zip(row, powers):
                if not w.is_zero():
                    add_scaled(part, power.coeffs, w)
            if part:
                out[(p, k - p)] = Form(form.dim, part)
    return out


# ---------------------------------------------------------------------------
# J acting multiplicatively on forms

def j_apply(model, form: Form) -> Form:
    """(J alpha)(X_1,...,X_k) = alpha(J X_1,...,J X_k), extended linearly."""
    rows = model._memo("j_rows", model.j_one_form_rows)
    return wedge_map(rows, form, model._memo("j_table", dict))


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
        """mu + del + delbar + mubar as s + conj s, s = mu + del: the barred
        components are the conjugates of the unbarred ones."""
        s = self.mu + self.del_
        return s + s.conjugated()


def differential_split(model) -> DifferentialSplit:
    """The four components of d: mu and del are the derivations with their
    coframe values, delbar and mubar their complex conjugates."""

    def build():
        d = model.d()
        zero = Form.zero(model.dim)
        mu_im, del_im = [], []
        for eta in pq_basis(model).eta_all:
            # u^i = eta + conj(eta) and d(conj eta) = conj(d eta)
            parts = decompose_form(model, d.apply(eta))
            mu_im.append(parts.get((0, 2), zero).conjugate())
            del_im.append(parts.get((2, 0), zero) + parts.get((1, 1), zero).conjugate())
        mu = derivation_from_one_forms(model.dim, mu_im)
        del_ = derivation_from_one_forms(model.dim, del_im)
        split = DifferentialSplit(mu, del_, del_.conjugated(), mu.conjugated())
        if split.total() != d:
            raise AssertionError("bidegree split does not reassemble d")
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
            # d(J u^i) is a 2-form, and J^{-1} = (-1)^2 J = J on degree two
            images.append(j_apply(model, model.d().apply(ju)))
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
    return named_operator(model, "L"), named_operator(model, "adj:L"), counting_operator(model)


# ---------------------------------------------------------------------------
# derived operators by name

def _l_part_omega(model) -> GradedOperator:
    """L_{mu omega}, declared of degree 3 also where mu omega = 0."""
    return mult_operator(named_operator(model, "mu").apply(model.omega())).with_degree(3)


# builders look up their helpers when they run, so a rebound module attribute
# (perfbench/tracer.py wraps them) is seen
_BASE_OPERATORS = {
    "d": lambda m: m.d(),
    "mu": lambda m: differential_split(m).mu,
    "del": lambda m: differential_split(m).del_,
    "delbar": lambda m: differential_split(m).delbar,
    "mubar": lambda m: differential_split(m).mubar,
    "L": lambda m: mult_operator(m.omega()),
    "L_mu_omega": _l_part_omega,
    "L_mubar_omega": lambda m: named_operator(m, "L_mu_omega").conjugated(),
}

# each barred name and the unbarred name it is the complex conjugate of
_CONJUGATES = {"delbar": "del", "mubar": "mu", "L_mubar_omega": "L_mu_omega"}


def named_operator(model, name: str) -> GradedOperator:
    """The operator ``name``: a key of ``_BASE_OPERATORS``, ``adj:<key>`` (its
    metric adjoint) or ``lap:<key>`` ([[P*, P]] from the memoized adjoint),
    built once and memoized under ``name``.

    The adjoint and Laplacian of a barred name are the conjugates of those
    of its unbarred partner: the norm weights are real, so
    conj(P*) = (conj P)*.
    """
    kind, _, base = name.rpartition(":")
    if base not in _BASE_OPERATORS or kind not in ("", "adj", "lap"):
        raise KeyError(f"unknown operator name {name!r}")

    def build():
        if kind and base in _CONJUGATES:
            return named_operator(model, f"{kind}:{_CONJUGATES[base]}").conjugated()
        if kind == "adj":
            return adjoint(named_operator(model, base), model.gram())
        if kind == "lap":
            return laplacian(named_operator(model, base), named_operator(model, "adj:" + base))
        return _BASE_OPERATORS[base](model)

    return model._memo(name, build)
