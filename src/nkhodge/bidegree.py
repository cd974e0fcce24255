"""Bidegree structure: type in the eta-frame, the split of d, and the sl2 triple.

Type is read from J alone, in one frame.  ``PQBasis`` keeps the
(1,0)-coframe eta = P^{1,0} u = (u - iJu)/2.  A greedy scan with
``linalg.solve`` keeps, in order, each image outside the span of those kept
so far.  The chosen eta^a and their conjugates generate the eta-frame: their
monomials are bases of every Lambda^{p,q}, so in that frame the type of a
form is read off the bits of its coordinates.  The change of basis is E, the
algebra map of the generators (its column m is the monomial m), and
F = E^{-1}, the algebra map of each u^i to its coordinates in the
generators (the dual coframe, computed once).  Every reading of type goes
through one of two primitives, and neither keeps a block of E or F:

* ``PQBasis.coordinates`` applies F to forms, through the columns of F
  that their supports need (``operators.algebra_map_apply``).
  ``PQBasis.outside`` keeps the coordinates off one type, the type test of
  HODGE_ABCD (d).  ``decompose_form`` groups them by type and maps each
  group back through the columns of E it needs: the split of d, LEM_NK,
  SU3_STRUCT and ``su3_extract``.
* ``PQBasis.frame`` is F P E, the matrix of an operator P of order <= r
  in the eta-monomial basis.  A degree-0 P preserves every Lambda^{p,q}
  exactly when each column of type (p,q) has rows of type (p,q) only
  (``PQBasis.preserves_type``: VANISH_COR, HODGE_ABCD's S; this holds on
  every type at once when no Koszul coefficient of the frame moves type,
  since L_{eta^b} iota_J moves it by t(b) - t(J)); its kernel on
  Lambda^{p,q} is that of its columns of type (p,q) (``harmonic_pq``); and
  DIM6_EIGEN compares each of its operators with its scalar on every type.
  E is an algebra map, so F P E has the order of P in the eta-coframe:
  ``frame`` composes the blocks F_{k+deg} P E_k of degree k <= r only,
  which read P's columns of degree <= r only (summed from its Koszul
  coefficients when P is held by them, with no store built), and rebuilds
  the rest by one reconstruction; the blocks are built as they are read,
  so no block of E or F past them is built.  r is P's order bound, which
  every operator a frame is taken of carries.

J_PQ reads type through neither primitive: J, E and the diagonal of
i^(p-q) are algebra maps, so J is diagonal in the frame exactly when
J eta^a = i eta^a and J conj(eta^a) = -i conj(eta^a).

``j_operator`` is J, the algebra map of the J u^i, built on the integer
store by ``operators.algebra_map_blocks``; only LEM_NK reads it.

``differential_split`` produces the four components with bidegrees
(2,-1), (1,0), (0,1), (-1,2).  d is real and J is real, so delbar and mubar
are the complex conjugates of del and mu.  Each component is a derivation:
mu and del are reconstructed from the (0,2) and (2,0) + (1,1) pieces of
d eta on the (1,0)-coframe (u^i = eta + conj eta), in every dimension, and
delbar, mubar are their conjugates, taken on the Koszul coefficients of
del and mu, so the split builds no store.  The test suite checks the split
against the literal projector-sandwich definition on the small models and
against four separate derivations on every built-in.  d^c = J^{-1} d J is likewise
a derivation built from its coframe values (``twisted_differential``),
shared by ``d_c`` and the DC_DEF check; it applies J to the 2-forms
d(J u^i) through the columns of the algebra map they need, not the full J.
The split's invariant d = mu + del + delbar + mubar and ``d_c``'s
d^c = i(mu - del + delbar - mubar) are sums of derivations, each held by
the summed Koszul coefficients of its terms (``operators.combination``)
and zero exactly when none is left.

``named_operator`` builds every derived operator the catalogue names: d,
the four components, L = L_omega, L_mu_omega and
L_mubar_omega, and for each of them ``adj:<name>`` (the metric adjoint) and
``lap:<name>`` (the Laplacian from that adjoint).  Each name has one
builder and is its own memo key, so an adjoint is built once and no key
can hold another operator's answer, a barred one's included:
L_mubar_omega is L_{mubar omega}, built as L_mu_omega is, and the adjoint
and Laplacian of delbar, mubar and L_mubar_omega are built from those
operators, as their unbarred partners' are from theirs.  An adjoint is
built by order (``operators.adjoint_by_order``): from its operand's
columns of degree <= the operand's bound, held by its Koszul
coefficients, so a reader of its low columns, such as every bracket, sums
those columns only, and no adjoint or Laplacian needs a full store.
``lefschetz_triple`` is (L, adj:L, H), each built once
per model.  An order test must not read an adjoint rebuilt from the bound
it tests, so its operand is the full weighted transpose (``full_adjoint``),
built anew on every call and memoized nowhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .exterior import Form
from .linalg import inverse, solve
from .operators import (
    MINUS_ONE,
    GradedOperator,
    adjoint,
    adjoint_by_order,
    algebra_map_apply,
    algebra_map_blocks,
    combination,
    derivation_from_one_forms,
    from_low_columns,
    laplacian,
    mult_operator,
    reconstruct,
)
from .scalars import I, ONE, ZERO, Scalar, rational


class PQBasis:
    """Chosen (1,0)/(0,1) coframe generators and the eta-frame they span."""

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
        # images of the generators: eta^a for bit a, conj(eta^a) for bit n + a
        self.generators = self.eta + [f.conjugate() for f in self.eta]
        # u^i in the generators: row i of the inverse of the generator matrix
        matrix = [[g.coeffs.get(1 << i, ZERO) for i in range(dim)] for g in self.generators]
        self.dual = [Form.one_form(dim, row) for row in inverse(matrix)]

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

    # -- the eta-frame ------------------------------------------------------

    def coordinates(self, forms: list[Form]) -> list[dict[int, Scalar]]:
        """F form for each form: its eta-monomial coordinates, from the
        columns of F that the supports need only."""
        return [f.coeffs for f in algebra_map_apply(self.dual, forms)]

    def outside(self, coords: dict[int, Scalar], p: int, q: int) -> dict[int, Scalar]:
        """The type test: the coordinates off type (p,q), none exactly when
        the form with these coordinates has type (p,q)."""
        return {m: v for m, v in coords.items() if self.bidegree_of_mask(m) != (p, q)}

    def preserves_type(self, frame: GradedOperator, p: int, q: int) -> bool:
        """The type test of a degree-0 operator in the eta-monomial basis
        (a ``frame``) on Lambda^{p,q}: every column of type (p,q) has rows
        of type (p,q) only.

        A term L_{eta^b} iota_J moves type by t(b) - t(J), and the Koszul
        coefficients are unique (``operators``), so a frame held by
        coefficients of which none moves type preserves every type, and no
        column is read; otherwise the rows of the columns of type (p,q)
        are scanned."""
        if frame._symbol is not None and not any(
            self.bidegree_of_mask(bm) != self.bidegree_of_mask(jm) for jm, form in frame._symbol for bm, *_ in form
        ):
            return True
        rows = (r for m in self.monomial_masks(p, q) for r in frame.coords.get(m, ()))
        return all(self.bidegree_of_mask(r) == (p, q) for r in rows)

    def frame(self, op: GradedOperator) -> GradedOperator:
        """F op E, the matrix of op in the eta-monomial basis, for op of
        order <= r, its ``order_bound``.

        E is an algebra map, so F op E has the order of op in the eta-coframe:
        it is built from the blocks F_{k+deg} op E_k of degree k <= r only
        (E up to degree r, F up to r + deg), which read only the columns of
        op of degree <= r (op held by Koszul coefficients sums those alone),
        and rebuilt by one Koszul reconstruction.  The blocks of E and F are
        built as they are read, F first, so no block past them is built."""
        r = op.order_bound
        f_blocks = islice(algebra_map_blocks(self.dim, self.dual), op.degree, None)
        pairs = islice(zip(f_blocks, algebra_map_blocks(self.dim, self.generators)), r + 1)
        blocks = [(ONE, f_k.compose(op._times_columns(e_k, e_k.coords))) for f_k, e_k in pairs]
        return from_low_columns(combination(blocks), r)


def pq_basis(model) -> PQBasis:
    return model._memo("pq_basis", lambda: PQBasis(model))


def decompose_form(model, form: Form) -> dict[tuple[int, int], Form]:
    """Split a form into its pure-bidegree pieces (zero pieces omitted), by
    degree and then increasing p: its eta-coordinates grouped by type, each
    group mapped back through the columns of E that it needs only."""
    pqb = pq_basis(model)
    groups: dict[tuple[int, int], dict[int, Scalar]] = {}
    for m, v in pqb.coordinates([form])[0].items():
        groups.setdefault(pqb.bidegree_of_mask(m), {})[m] = v
    types = sorted(groups, key=lambda pq: (pq[0] + pq[1], pq[0]))
    return dict(zip(types, algebra_map_apply(pqb.generators, [Form(form.dim, groups[pq]) for pq in types])))


def j_operator(model) -> GradedOperator:
    """J, (J alpha)(X_1, ..., X_k) = alpha(J X_1, ..., J X_k): the algebra map
    of the J u^i, its degree blocks summed into one operator; read by
    LEM_NK only."""

    def build():
        return combination([(ONE, block) for block in algebra_map_blocks(model.dim, model.j_one_form_rows())])

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


def differential_split(model) -> DifferentialSplit:
    """The four components of d: mu and del are the derivations with their
    coframe values, held by their Koszul coefficients, and delbar and mubar
    their complex conjugates, held by the conjugate coefficients, so no
    store is built.  d = mu + del + delbar + mubar is asserted on the
    summed Koszul coefficients of the five derivations
    (``operators.combination``)."""

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
        terms = [(ONE, p) for p in split.components().values()]
        if not combination([*terms, (MINUS_ONE, d)]).is_zero():
            raise AssertionError("bidegree split does not reassemble d")
        return split

    return model._memo("split", build)


# ---------------------------------------------------------------------------
# derived operators

def twisted_differential(model) -> GradedOperator:
    """J^{-1} d J: the derivation with coframe values J^{-1} d J u^i."""

    def build():
        d, j_rows = model.d(), model.j_one_form_rows()
        # d(J u^i) is a 2-form, and J^{-1} = (-1)^2 J = J on degree two: the
        # algebra map of the J u^i on the columns these 2-forms need only
        images = algebra_map_apply(j_rows, [d.apply(ju) for ju in j_rows])
        return derivation_from_one_forms(model.dim, images)

    return model._memo("jdj", build)


def d_c(model) -> GradedOperator:
    """J^{-1} d J, held by its Koszul coefficients and cross-checked against
    i(mu - del + delbar - mubar) on the summed coefficients of the
    derivations (``operators.combination``)."""

    def build():
        twisted = twisted_differential(model)
        parts = differential_split(model).components().values()
        terms = [(ONE, twisted), *zip((-I, I, -I, I), parts)]
        if not combination(terms).is_zero():
            raise AssertionError("J^{-1} d J disagrees with i(mu - del + delbar - mubar)")
        return twisted

    return model._memo("d_c", build)


def counting_operator(model) -> GradedOperator:
    """H = |m| - n on u^m, the Koszul sum with beta_{empty} = -n and
    beta_{i} = u^i, so of order 1, held by these coefficients (SL2 reads
    its columns of degree <= 2 only); built once per model."""

    def build():
        dim = model.dim
        beta = {1 << i: Form.basis(dim, 1 << i) for i in range(dim)}
        beta[0] = Form.basis(dim, 0, rational(-(dim // 2)))
        return reconstruct(dim, beta, 0)

    return model._memo("H", build)


def lefschetz_triple(model) -> tuple[GradedOperator, GradedOperator, GradedOperator]:
    return named_operator(model, "L"), named_operator(model, "adj:L"), counting_operator(model)


# ---------------------------------------------------------------------------
# derived operators by name

def _l_part_omega(model, part: str) -> GradedOperator:
    """L_{P omega} for the component ``part`` (mu or mubar), declared of
    degree 3 also where P omega = 0."""
    return mult_operator(named_operator(model, part).apply(model.omega())).with_degree(3)


# builders look up their helpers when they run, so a rebound module attribute
# (perfbench/tracer.py wraps them) is seen
_BASE_OPERATORS = {
    "d": lambda m: m.d(),
    "mu": lambda m: differential_split(m).mu,
    "del": lambda m: differential_split(m).del_,
    "delbar": lambda m: differential_split(m).delbar,
    "mubar": lambda m: differential_split(m).mubar,
    "L": lambda m: mult_operator(m.omega()),
    "L_mu_omega": lambda m: _l_part_omega(m, "mu"),
    "L_mubar_omega": lambda m: _l_part_omega(m, "mubar"),
}


def full_adjoint(model, base: str) -> GradedOperator:
    """The adjoint of the operator ``base`` as the full weighted transpose of
    its store, built anew on every call: the operand of an order test
    (ORDER_DSTAR, ORDER_LB, ORDER_BRACKET, ``nkhodge order``), which must
    not read an adjoint reconstructed from the bound it tests."""
    return adjoint(named_operator(model, base), model.gram())


def named_operator(model, name: str) -> GradedOperator:
    """The operator ``name``: a key of ``_BASE_OPERATORS``, ``adj:<key>`` (its
    metric adjoint, built by order from the operator's low columns,
    ``operators.adjoint_by_order``) or ``lap:<key>`` ([[P*, P]] from the
    memoized adjoint), built once and memoized under ``name``.  Each kind
    has one builder, which reads its own operand only, barred or not, so
    no memo holds another operator's answer."""
    kind, _, base = name.rpartition(":")
    if base not in _BASE_OPERATORS or kind not in ("", "adj", "lap"):
        raise KeyError(f"unknown operator name {name!r}")

    def build():
        if kind == "adj":
            return adjoint_by_order(named_operator(model, base), model.gram())
        if kind == "lap":
            return laplacian(named_operator(model, base), named_operator(model, "adj:" + base))
        return _BASE_OPERATORS[base](model)

    return model._memo(name, build)
