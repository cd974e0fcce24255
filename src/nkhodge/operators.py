"""Graded operators as sparse exact matrices on the exterior algebra.

An operator is stored as one denominator times integer coordinates (Cohen,
*A Course in Computational Algebraic Number Theory*, GTM 138, 1993, ch. 4):
a positive denominator ``q``, the extension parameter ``d`` of the field
Q(sqrt d)(i) its entries lie in, and, column by column over the bitmask
basis, a dict ``coords[c]`` of row mask -> ``(a, b, c, e)`` of ints, meaning
the entry (a + b sqrt(d) + i(c + e sqrt(d))) / q.  The arithmetic is that
of the field kernel in ``scalars``: ``d`` joins through ``scalars.join``,
so d = 1 operators (the counting operator; d itself on the built-ins) mix
with any d, and the hot loops specialize ``scalars.product`` inline.

Every result is normalized once.  Entries that cancel are dropped, q and
all coordinates are divided by their gcd, d is 1 when no entry has a
sqrt(d) part, and ``real`` records that no entry has an imaginary part.
The store of an operator is therefore unique, and operator equality is
literal equality of the stores, which stays exact.  Equal entries share
one tuple (an operator has a few dozen distinct entries), which keeps the
store smaller than a Scalar per entry, and the normalizing scans run over
the distinct entries only.  A linear combination sum c_i P_i is one
merge over the lcm of the q_i q(c_i) (``combination``; sums, differences,
negation and ``scale`` are its one- and two-term cases), with no scaled or
negated copy; products multiply the denominators and the coordinates;
``conjugated`` acts on the coordinates.  Each operation walks and inserts
keys as accumulating through ``linalg.add_scaled`` does (a key whose sum
cancels is removed, and re-appended if it comes back), so the key orders
of a store are those of the Scalar arithmetic, except that an operator
held by Koszul coefficients (below), a sum of held operators among them,
has the key orders of the Koszul scan.

``Scalar`` appears only at the boundaries.  The constructor takes sparse
columns of Scalars and, as ``reconstruct`` does with its coefficient forms,
converts them once over one common denominator (``scalars.common``).
``apply`` accumulates a form's image in integers and builds one Scalar
per output entry, as does ``column_form``; ``first_witness`` and
``max_abs_approx`` read each entry as its normalized Scalar, so residuals
and witnesses are those of the Scalar arithmetic to the last bit.
``entry_rows`` is the one reader that hands a block of columns to exact
elimination (``linalg.pivot_columns``, ``linalg.sparse_kernel``): integer
entry rows read straight off the coordinates of those columns, with no
Scalar built.  ``cols`` converts the whole operator once and keeps the
result; no production route reads it.

The metric adjoint P* is the operator with <P a, b> = <a, P* b>.  Every
computation runs in an orthogonal coframe (``LieAlgebraModel.orthogonalized``),
where the basis forms are pairwise orthogonal with <u^m, u^m> = 1/w(m), so
the adjoint is the weighted conjugate transpose
P*[c][r] = conj(P[r][c]) w(c) / w(r) (``adjoint``), with the weights of
the masks that P's store touches as integer data
(``GramData.integral_weights``).  A coupled metric is refused; the test
suite checks the result against the literal minor-determinant sandwich
G^{-1} P^dagger G on coupled metrics and against -*d* for d.  Column c
of P* is row c of P, so for P of order <= r the columns of P* of degree
<= r + |P| read only P's columns of degree <= r, and P*, of order
<= r + |P| (below), is their reconstruction (``adjoint_by_order``): by
the uniqueness of the Koszul coefficients, the same store as the full
transpose.  The Laplacian ``laplacian(p, p_star)`` = [[P*, P]] takes the
adjoint as an argument and never builds one; ``bidegree.named_operator``
is where both are built, the adjoint by order, and memoized.

Every operator is uniquely P = sum_J L_{beta_J} iota_J, with iota_J the
contraction u^J ^ u^R -> u^R, and its algebraic order is max |J| over the
nonzero beta_J (Koszul, *Crochet de Schouten-Nijenhuis et cohomologie*,
1985).  ``_koszul_integral`` reads the beta_J with |J| <= r off the
columns of degree <= r and ``reconstruct`` sums them back up, so an
operator of order <= r is the reconstruction of its low-degree columns
(``from_low_columns``).  That is the order test (``algebraic_order_at_most``:
P equals its reconstruction), the only route from coframe values to a
derivation (``derivation_from_one_forms``, d among them), and the route of
every bracket of bounded order.  With rest = mask - J, the term of u^b in
beta_J enters column ``mask`` at b | rest with the sign
(-1)^popcount(rest & (K(b) ^ K(J))) (``exterior.sign_key``).  Each
coefficient form is prepared once (``_prepare``: once per reconstruction,
once per new coefficient in ``_koszul_integral``) into J and its entries
(b, K(b) ^ K(J), coordinates, negated coordinates), so a term costs one
``bit_count`` and no call.

A reconstruction is held by its prepared coefficients (``_koszul_sum``):
``coords`` scatters each coefficient entry into every column it enters
(``_reconstruct``) on the first read that walks the store, and keeps it.
A reader of some columns sums only those (``_koszul_column``), kept per
mask (``_lookup``): ``apply``, ``low_columns``, ``entry_rows``, the Koszul
integral, both factors of a bracket's products on its low columns, and an
operator taken into the eta-frame (``bidegree.PQBasis.frame``).
``compose`` may read every row of its left factor, so it builds that
factor's store first.
``is_zero`` asks for a coefficient (the sum is unique) and ``with_degree``
shares the coefficients.  ``conjugated`` conjugates the coefficients and
builds no store: the coframe is real, so conj(L_beta iota_J) =
L_{conj beta} iota_J, and each prepared entry (b, K, u, -u) becomes
(b, K, conj u, -conj u), with q, d, degree and bound kept; a stored
operator is conjugated entry by entry.  Each store
entry is a signed sum of coefficient entries and each coefficient one of
store entries (the integral), so both span the same lattice coordinate
by coordinate: q, d and ``real`` are normalized on the coefficients, and
the store needs no scan.
``algebra_map_blocks`` is the degree-0 algebra map u^i -> images[i] of
1-forms (a change of coframe), built one degree block at a time on the
integer coordinates: column m is images[i] ^ (column m - i of the block
before), with no Scalar and no ``Form.wedge``.  ``algebra_map_apply``
applies it to forms through the columns their supports need.

An operator may carry ``order_bound``, an r with ord P <= r that a theorem
gives; no route computes it from the matrix, since that is the order test,
and equality ignores it.  A reconstruction is bounded by max |J| over its
coefficient forms: every derivation, d and its components among them, by
1 and every L_beta by 0.  ``identity`` and ``zero`` are bounded by 0; the
adjoint of P by r + |P|, floored at 0, since in an orthogonal coframe
(L_{u^b} iota_J)* is a weighted L_{u^J} iota_b with |b| = |J| + |P|; a
product by the sum of the bounds, a linear combination by their max.
``scale``, ``conjugated``, negation and ``with_degree`` keep the bound.
Every other operator (the constructor's, ``algebra_map_blocks``, a
product on some columns) has none.

The order filtration is multiplicative and its graded algebra is
graded-commutative, so ord [[P, Q]] <= ord P + ord Q - 1.  ``bracket_sum``
builds a sum of brackets, and odd squares P P = (1/2)[[P, P]], from the
products on the columns of degree <= r only (``bracket_columns``) and one
reconstruction; ``graded_commutator`` and ``laplacian`` are its one-term
cases.  That is the only route to a bracket, so every operand must carry
an order bound (``bracket_order`` reads r off them), and one without
raises ValueError; [[P, L_beta]] for a derivation P is its r = 0 case.
Each ``bracket_sum`` is the full matrix, so with a true bound it equals the
composed commutator literally.

The Koszul coefficients are linear in the operator: P = sum_J L_{beta_J}
iota_J and Q = sum_J L_{gamma_J} iota_J give c P + c' Q = sum_J
L_{c beta_J + c' gamma_J} iota_J, and by uniqueness these are the
coefficients of the sum.  So a linear combination of operators held by
their coefficients is held by the same combination of the coefficients:
``combination`` merges the coefficient forms {J: {b: coordinates}} with
the loop that merges stores, and the sum is ``_koszul_sum`` of the merged
forms, zero exactly when none is left, with the largest bound among the
terms.  A sum with a stored term is merged on the stores.  Every
requirement sum c_i T_i of the catalogue, the invariants of the split of
d and of d^c, and the operators that an eta-frame is taken of go this way,
so none of these sums builds a store unless a reader walks it (the
witness of a failing requirement); THETA_BRACKET's sum, whose products
L_a L_b* are composed, and ORDER_BRACKET's d* L - L d* are merged on their
stores.
"""

from __future__ import annotations

import functools
import math

from .exterior import Form, GramData, graded_lex_key, mask_label, sign_key
from .linalg import EntryRow
from .scalars import ONE, Entry, Scalar, common, join, product

MINUS_ONE = Scalar(-1, 0, 0, 0)
Column = dict[int, Scalar]
Coords = tuple[int, int, int, int]  # (a, b, c, e): (a + b sqrt d + i(c + e sqrt d)) / q
Store = dict[int, dict[int, Coords]]  # column mask -> row mask -> coordinates


def _map_entries(coords: Store, fn) -> Store:
    """The store with every entry t replaced by fn(t), an injective map
    computed once per distinct entry, so that equal entries stay one tuple."""
    image: dict[Coords, Coords] = {}
    get, put = image.get, image.setdefault
    return {c: {r: get(t) or put(t, fn(t)) for r, t in col.items()} for c, col in coords.items()}


def _conj(t: Coords) -> Coords:
    return (t[0], t[1], -t[2], -t[3])


def _normal(q: int, d: int, real: bool, distinct: set[Coords]):
    """(div, q, d, real) for entries over q with these distinct values:
    div divides an entry by g, the gcd of q and every coordinate (None for
    g = 1), q is divided by g, d is folded to 1 without a sqrt(d) part and
    ``real`` made exact (``real=True`` is taken as known)."""
    g = math.gcd(q, *(x for t in distinct for x in t))
    if d != 1 and not any(t[1] or t[3] for t in distinct):
        d = 1
    real = real or not any(t[2] or t[3] for t in distinct)
    div = None if g == 1 else (lambda t: (t[0] // g, t[1] // g, t[2] // g, t[3] // g))
    return div, q // g, d, real


def _check_degree(coords: Store, degree: int | None) -> None:
    """ValueError at the first entry, in store order, off the declared degree."""
    if degree is None:
        return
    for c, col in coords.items():
        k = c.bit_count() + degree
        for r in col:
            if r.bit_count() != k:
                raise ValueError(f"entry ({mask_label(r)}, {mask_label(c)}) violates degree {degree}")


def _accumulate(dim: int, q: int, d: int, terms) -> Form:
    """The form sum s * col over the (integer column over q, Scalar s) pairs
    of ``terms``: accumulated in integers over one denominator, in the key
    order of ``linalg.add_scaled``, with one Scalar per output entry."""
    den, sd, scaled = common([s for _, s in terms])
    d = join(d, sd)
    out: dict[int, list[int]] = {}
    for (col, _), (ua, ub, uc, ue) in zip(terms, scaled):
        for r, (a, b, c, e) in col.items():
            # the product of the two entries, as ``scalars.product``
            ra = a * ua + d * (b * ub - e * ue) - c * uc
            rb = a * ub + b * ua - c * ue - e * uc
            ia = a * uc + c * ua + d * (b * ue + e * ub)
            ib = a * ue + e * ua + b * uc + c * ub
            acc = out.get(r)
            if acc is None:
                out[r] = [ra, rb, ia, ib]
            else:
                acc[0] += ra
                acc[1] += rb
                acc[2] += ia
                acc[3] += ib
                if not (acc[0] or acc[1] or acc[2] or acc[3]):
                    del out[r]
    q *= den
    return Form(dim, {r: Scalar(a, b, c, e, q, d) for r, (a, b, c, e) in out.items()})


class GradedOperator:
    """Sparse exact matrix with a declared degree, over one denominator, and
    the order bound a theorem gives it (``order_bound``, None without one)."""

    __slots__ = ("dim", "degree", "q", "d", "real", "order_bound", "_coords", "_symbol", "_columns", "_cols")

    def __init__(
        self,
        dim: int,
        cols: dict[int, Column],
        degree: int | None = None,
        *,
        check: bool = True,
    ):
        """The operator with the given sparse columns of Scalars (zeros dropped)."""
        q, d, coords = common([v for col in cols.values() for v in col.values()])
        shared: dict[Coords, Coords] = {}  # one tuple per value
        share = shared.setdefault
        store: Store = {}
        values = iter(coords)  # zip reads each column's keys first, so it takes only their values
        for c, col in cols.items():
            kept = {r: share(t, t) for r, t in zip(col, values) if t != (0, 0, 0, 0)}
            if kept:
                store[c] = kept
        # Scalars are normalized: q, the lcm of theirs, has no factor in
        # common with every coordinate, and d > 1 only with a sqrt(d) part
        self._set(dim, degree, q, d, not any(t[2] or t[3] for t in shared), store)
        if check:
            _check_degree(store, degree)

    def _set(self, dim, degree, q, d, real, coords, order_bound=None, symbol=None) -> GradedOperator:
        self.dim = dim
        self.degree = degree
        self.q = q
        self.d = d
        self.real = real
        self.order_bound = order_bound
        self._coords = coords  # None while held by the prepared Koszul coefficients ``symbol``
        self._symbol = symbol
        self._columns = {} if coords is None else None  # columns summed singly, by mask
        self._cols = None
        return self

    @property
    def coords(self) -> Store:
        """The store; held by Koszul coefficients, built on first read."""
        if self._coords is None:
            self._coords = _reconstruct(self.dim, self._symbol)
            self._columns = None
        return self._coords

    def _lookup(self):
        """mask -> column (empty or None when zero) with no store built: held
        by Koszul coefficients, each column summed on first read and kept.
        Every reader of some columns goes through it: ``apply``,
        ``entry_rows``, ``_low_store``, the left factor of
        ``_times_columns`` and the Koszul integral."""
        if self._coords is not None:
            return self._coords.get
        columns, symbol = self._columns, self._symbol
        return lambda m: columns[m] if m in columns else columns.setdefault(m, _koszul_column(symbol, m))

    def _low_store(self, r: int) -> Store:
        """The nonzero columns of degree <= r in store order (``_lookup``)."""
        if self._coords is not None:
            return {m: col for m, col in self._coords.items() if m.bit_count() <= r}
        column = self._lookup()
        return {m: col for m in _low_masks(self.dim, r) if (col := column(m))}

    @classmethod
    def _normalized(
        cls, dim: int, degree: int | None, q: int, d: int, real: bool, coords: Store, order_bound: int | None = None
    ) -> GradedOperator:
        """The operator of a store with no zero entry and no empty column,
        normalized (``_normal``) with a scan over the distinct entries."""
        div, q, d, real = _normal(q, d, real, {t for col in coords.values() for t in col.values()})
        if div:
            coords = _map_entries(coords, div)
        return object.__new__(cls)._set(dim, degree, q, d, real, coords, order_bound)

    # -- basic structure ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int | None = 0) -> GradedOperator:
        return object.__new__(cls)._set(dim, degree, 1, 1, True, {}, 0)

    @classmethod
    def identity(cls, dim: int) -> GradedOperator:
        unit = (1, 0, 0, 0)
        return object.__new__(cls)._set(dim, 0, 1, 1, True, {m: {m: unit} for m in range(1 << dim)}, 0)

    def with_degree(self, degree: int | None) -> GradedOperator:
        """The same matrix declared of another degree (the store, or the
        Koszul coefficients, are shared)."""
        return object.__new__(GradedOperator)._set(
            self.dim, degree, self.q, self.d, self.real, self._coords, self.order_bound, self._symbol
        )

    def is_zero(self) -> bool:
        """Whether P = 0: held by Koszul coefficients, whether it has none."""
        return not (self._symbol if self._coords is None else self._coords)

    def nnz(self) -> int:
        return sum(len(col) for col in self.coords.values())

    def _entry(self, t: Coords) -> Scalar:
        return Scalar(t[0], t[1], t[2], t[3], self.q, self.d)

    @property
    def cols(self) -> dict[int, Column]:
        """Every column as Scalars, one per distinct entry; converted on
        first read and kept."""
        if self._cols is None:
            image: dict[Coords, Scalar] = {}
            get, put, entry = image.get, image.setdefault, self._entry
            self._cols = {c: {r: get(t) or put(t, entry(t)) for r, t in col.items()} for c, col in self.coords.items()}
        return self._cols

    def apply(self, form: Form) -> Form:
        """P form, from the columns the form's support needs (``_lookup``)."""
        column = self._lookup()
        terms = [(col, s) for m, s in form.coeffs.items() if (col := column(m))]
        return _accumulate(self.dim, self.q, self.d, terms)

    def column_form(self, mask: int) -> Form:
        col = self.coords.get(mask, {})
        return Form(self.dim, {r: self._entry(t) for r, t in col.items()})

    def entry_rows(self, masks, skip_rows=()) -> tuple[list[EntryRow], int]:
        """(rows, d): the block of the columns at ``masks``, column j at
        masks[j], as entry rows for ``linalg.pivot_columns`` and
        ``linalg.sparse_kernel``, with the rows in ``skip_rows`` left out.
        The rows come in order of first appearance over the block's columns
        taken in increasing mask order, the store order of every Koszul
        reconstruction.  They are read straight off the integer coordinates
        and q is dropped, since no pivot or kernel changes under scaling;
        each distinct coordinate tuple t becomes one shared entry (*t, 1).
        Only the columns at ``masks`` are read (``_lookup``: held by Koszul
        coefficients, only those are summed, in the key order of the
        store), and no Scalar is built."""
        index = {m: j for j, m in enumerate(masks)}
        column = self._lookup()
        entry: dict[Coords, Entry] = {}
        rows: dict[int, EntryRow] = {}
        for c in sorted(index):
            j = index[c]
            for r, t in (column(c) or {}).items():
                if r not in skip_rows:
                    rows.setdefault(r, {})[j] = entry.get(t) or entry.setdefault(t, (*t, 1))
        return list(rows.values()), self.d

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: GradedOperator) -> GradedOperator:
        return combination([(ONE, self), (ONE, other)])

    def __sub__(self, other: GradedOperator) -> GradedOperator:
        return combination([(ONE, self), (MINUS_ONE, other)])

    def __neg__(self) -> GradedOperator:
        return combination([(MINUS_ONE, self)])

    def scale(self, s: Scalar) -> GradedOperator:
        return combination([(s, self)])

    def compose(self, other: GradedOperator) -> GradedOperator:
        """self after other (matrix product self . other), of order at most
        the sum of the two bounds."""
        bound = None
        if self.order_bound is not None and other.order_bound is not None:
            bound = self.order_bound + other.order_bound
        self.coords  # every row may be read: one block scatter, not one sum per column
        return self._times_columns(other, other.coords, bound)

    def _times_columns(self, other: GradedOperator, columns: Store, order_bound: int | None = None) -> GradedOperator:
        """self . other on ``columns`` only, a part of other's store: the
        product kernel, which ``compose`` runs on every column.  Only the
        columns of self that rows of ``columns`` name are read (``_lookup``)."""
        deg = None
        if self.degree is not None and other.degree is not None:
            deg = self.degree + other.degree
        d = join(self.d, other.d)
        real = self.real and other.real
        column = self._lookup()
        products: dict[Coords, Coords] = {}
        share = products.setdefault
        cols: Store = {}
        for c, col in columns.items():
            acc: dict[int, list[int]] = {}
            for mid, (a2, b2, c2, e2) in col.items():
                right = column(mid)
                if not right:
                    continue
                # ``scalars.product`` for rational, real and complex entries
                if real and d == 1:
                    for r, t in right.items():
                        ra = t[0] * a2
                        s = acc.get(r)
                        if s is None:
                            acc[r] = [ra, 0, 0, 0]
                        else:
                            s[0] += ra
                            if not s[0]:
                                del acc[r]
                elif real:
                    db2 = d * b2
                    for r, t in right.items():
                        a1, b1 = t[0], t[1]
                        ra = a1 * a2 + b1 * db2
                        rb = a1 * b2 + b1 * a2
                        s = acc.get(r)
                        if s is None:
                            acc[r] = [ra, rb, 0, 0]
                        else:
                            s[0] += ra
                            s[1] += rb
                            if not (s[0] or s[1]):
                                del acc[r]
                else:
                    db2, de2 = d * b2, d * e2
                    for r, (a1, b1, c1, e1) in right.items():
                        if b2 or c2:
                            ra = a1 * a2 + b1 * db2 - c1 * c2 - e1 * de2
                            rb = a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2
                            ia = a1 * c2 + c1 * a2 + b1 * de2 + e1 * db2
                            ib = a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2
                        else:  # the right entry is a2 + i e2 sqrt(d): half the products
                            ra = a1 * a2 - e1 * de2
                            rb = b1 * a2 - c1 * e2
                            ia = c1 * a2 + b1 * de2
                            ib = e1 * a2 + a1 * e2
                        s = acc.get(r)
                        if s is None:
                            acc[r] = [ra, rb, ia, ib]
                        else:
                            s[0] += ra
                            s[1] += rb
                            s[2] += ia
                            s[3] += ib
                            if not (s[0] or s[1] or s[2] or s[3]):
                                del acc[r]
            if acc:
                cols[c] = {r: share(t, t) for r, t in zip(acc, map(tuple, acc.values()))}
        return GradedOperator._normalized(self.dim, deg, self.q * other.q, d, real, cols, order_bound)

    def conjugated(self) -> GradedOperator:
        """conj . P . conj, entry-wise since the basis is real: on the store,
        or, held by Koszul coefficients, on the coefficients, since the
        coframe is real and so conj(L_beta iota_J) = L_{conj beta} iota_J."""
        if self.real:
            return self
        coords = symbol = None
        if self._coords is not None:
            coords = _map_entries(self._coords, _conj)
        else:
            symbol = [(jm, [(b, k, _conj(u), _conj(n)) for b, k, u, n in form]) for jm, form in self._symbol]
        return object.__new__(GradedOperator)._set(
            self.dim, self.degree, self.q, self.d, False, coords, self.order_bound, symbol
        )

    # -- comparison & diagnostics ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedOperator):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.q == other.q
            and self.d == other.d
            and self.coords == other.coords
        )

    def __hash__(self):  # pragma: no cover
        raise TypeError("GradedOperator is not hashable")

    def first_witness(self) -> str | None:
        """Label of the graded-lex-first nonzero entry (for residual reports)."""
        if self.is_zero():
            return None
        c = min(self.coords, key=graded_lex_key)
        r = min(self.coords[c], key=graded_lex_key)
        return f"column {mask_label(c)}, row {mask_label(r)}: {self._entry(self.coords[c][r]).literal()}"

    def max_abs_approx(self) -> float:
        """Largest |entry|, each distinct entry embedded as its normalized Scalar."""
        distinct = {t for col in self.coords.values() for t in col.values()}
        return max((abs(self._entry(t).approx()) for t in distinct), default=0.0)

    def __repr__(self) -> str:
        return f"GradedOperator(dim={self.dim}, degree={self.degree}, nnz={self.nnz()})"


def combination(terms) -> GradedOperator:
    """sum c_i P_i over the (Scalar c_i, operator P_i) of ``terms``, at least
    one: each operand's distinct entries scaled by c_i once, merged in order
    as a chain of binary sums is, and normalized once.  When every nonzero
    term is held by Koszul coefficients the merge runs on their coefficient
    forms, and the sum is held by the merged ones (they are unique, so they
    are the sum's); otherwise on the stores, literally the chain's store.
    The degree is the common one, else None; the order bound the max, None
    when a term has none (c_i = 0 makes a term zero, bounded by 0)."""
    live = [(c, p) for c, p in terms if not (p.is_zero() or c.is_zero())]
    held = bool(live) and all(p._symbol is not None for _, p in live)
    q = d = 1
    for c, p in live:
        q, d = math.lcm(q, p.q * c.q), join(join(d, p.d), c.d)
    cols: Store = {}
    owned: set[int] = set()  # columns built here; the others are an operand's, never changed
    sums: dict[Coords, Coords] = {}
    share = sums.setdefault
    for c, p in live:
        f = q // (p.q * c.q)
        u = (c.a * f, c.b * f, c.c * f, c.e * f, 1)
        scaled = None if u == (1, 0, 0, 0, 1) else (lambda t, u=u: product((*t, 1), u, d)[:4])
        image: dict[Coords, Coords] = {}
        get, put = image.get, image.setdefault
        store = {jm: {bm: t for bm, _, t, _ in form} for jm, form in p._symbol} if held else p.coords
        for m, col in store.items():
            acc = cols.get(m)
            if acc is None:
                if scaled is None:
                    cols[m] = col
                else:
                    cols[m] = {r: get(t) or put(t, scaled(t)) for r, t in col.items()}
                    owned.add(m)
                continue
            if m not in owned:
                acc = cols[m] = dict(acc)
                owned.add(m)
            for r, t in col.items():
                if scaled is not None:
                    t = get(t) or put(t, scaled(t))
                x = acc.get(r)
                if x is None:
                    acc[r] = t
                    continue
                s = (x[0] + t[0], x[1] + t[1], x[2] + t[2], x[3] + t[3])  # ``scalars.add``, one q
                if s[0] or s[1] or s[2] or s[3]:
                    acc[r] = share(s, s)
                else:
                    del acc[r]
            if not acc:  # no later column of this term reads it
                del cols[m]
                owned.discard(m)
    degrees = {p.degree for _, p in terms}
    bounds = [0 if c.is_zero() else p.order_bound for c, p in terms]
    deg, bound = degrees.pop() if len(degrees) == 1 else None, None if None in bounds else max(bounds)
    if held:
        out = _koszul_sum(terms[0][1].dim, _prepare(cols), q, d, deg)
        out.order_bound = bound
        return out
    real = all(p.real and c.is_real() for c, p in live)
    return GradedOperator._normalized(terms[0][1].dim, deg, q, d, real, cols, bound)


# ---------------------------------------------------------------------------
# multiplication operators

def mult_operator(beta: Form) -> GradedOperator:
    """Left wedge multiplication L_beta, the Koszul sum with beta_{empty} = beta only.

    beta must be homogeneous (or zero).
    """
    deg = beta.degree()
    if deg is None and not beta.is_zero():
        raise ValueError("multiplication operator needs a homogeneous form")
    return reconstruct(beta.dim, {0: beta}, deg if deg is not None else 0)


# ---------------------------------------------------------------------------
# adjoints

def adjoint(p: GradedOperator, gram: GramData) -> GradedOperator:
    """Metric adjoint over a diagonal metric, the weighted conjugate
    transpose of P's store, reading the weights of the masks that the store
    touches only: w on its columns, 1/w on their rows.  A coupled metric
    raises ValueError."""
    store = p.coords
    wd, qw, w, qi, inv = gram.integral_weights(store, set().union(*store.values()))
    d = join(p.d, wd)
    rational = wd == 1
    entries: dict[Coords, Coords] = {}
    share = entries.setdefault
    cols: Store = {}
    for c, col in store.items():
        xc, yc, _, _ = w[c]
        for r, (a, b, x, e) in col.items():
            xr, yr, _, _ = inv[r]
            if rational:
                k = xc * xr
                t = (a * k, b * k, -x * k, -e * k)
            else:
                # conj(entry) times the real w(c)/w(r) = kx + ky sqrt(d), as ``scalars.product``
                kx, ky = xc * xr + d * yc * yr, xc * yr + yc * xr
                t = (a * kx + d * b * ky, a * ky + b * kx, -(x * kx + d * e * ky), -(x * ky + e * kx))
            cols.setdefault(r, {})[c] = share(t, t)
    deg = bound = None
    if p.degree is not None:
        deg = -p.degree
        if p.order_bound is not None:
            # (L_{u^b} iota_J)* is a weighted L_{u^J} iota_b, |b| = |J| + |P|
            bound = max(p.order_bound + p.degree, 0)
    return GradedOperator._normalized(p.dim, deg, p.q * qw * qi, d, p.real, cols, bound)


def adjoint_by_order(p: GradedOperator, gram: GramData) -> GradedOperator:
    """P* for P of order <= r, its ``order_bound``, from P's columns of
    degree <= r only.  Column c of P* is row c of P, whose entries lie in
    P's columns of degree |c| - |P|, so P*'s columns of degree <= r + |P|
    are the ``adjoint`` of P's columns of degree <= r.  P* has order
    <= r + |P|, so it is their reconstruction (``from_low_columns``), held
    by its Koszul coefficients, and the store is unique, so it is literally
    the full transpose, with the same bound."""
    r = p.order_bound
    bound = max(r + p.degree, 0)
    out = from_low_columns(adjoint(low_columns(p, r), gram), bound)
    out.order_bound = bound
    return out


# ---------------------------------------------------------------------------
# graded commutators and Laplacians

def bracket_order(pairs, squares=()) -> int:
    """The order bound r = max(r_P + r_Q - 1, 0) over the terms of
    ``bracket_sum``.  ValueError unless every term has a declared degree,
    all the same, every square is odd and every operand carries an order
    bound."""
    terms = [*pairs, *((p, p) for p in squares)]
    if any(p.degree is None or q.degree is None for p, q in terms):
        raise ValueError("graded commutator needs declared degrees")
    if any(p.degree % 2 == 0 for p in squares):
        raise ValueError("the square of an even operator is not half a bracket")
    degrees = {p.degree + q.degree for p, q in terms}
    if len(degrees) != 1:
        raise ValueError(f"a sum of brackets needs terms of one degree, got {sorted(degrees)}")
    if any(p.order_bound is None or q.order_bound is None for p, q in terms):
        raise ValueError("a bracket by order needs operands with order bounds")
    return max(max(p.order_bound + q.order_bound - 1 for p, q in terms), 0)


def bracket_columns(pairs, squares=()) -> tuple[GradedOperator, int]:
    """(low, r): the signed products of ``bracket_sum`` on the columns of
    degree <= r only, summed, with r the sum's ``bracket_order``.

    ``from_low_columns(low, r)`` is the bracket sum.  Like any product on
    some columns, ``low`` has no order bound, so no reader can take it for
    the full matrix."""
    r = bracket_order(pairs, squares)

    def times(p, q):
        return p._times_columns(q, q._low_store(r))

    products = []
    for p, q in pairs:
        products += [(ONE, times(p, q)), (ONE if p.degree * q.degree % 2 else MINUS_ONE, times(q, p))]
    products += [(ONE, times(p, p)) for p in squares]
    return combination(products), r


def bracket_sum(pairs, squares=()) -> GradedOperator:
    """The sum of [[P, Q]] = P Q - (-1)^{|P||Q|} Q P over the ``pairs`` (P, Q),
    plus P P = (1/2)[[P, P]] over the odd P in ``squares``, of operators
    with order bounds.  Every term must have the same degree |P| + |Q|,
    which the result declares.  The sum has order at most r: it is
    ``from_low_columns`` of ``bracket_columns``, held by the Koszul
    coefficients of the products on the columns of degree <= r."""
    return from_low_columns(*bracket_columns(pairs, squares))


def graded_commutator(p: GradedOperator, q: GradedOperator) -> GradedOperator:
    """[[P, Q]] = P Q - (-1)^{|P||Q|} Q P; degrees and order bounds must be
    declared."""
    return bracket_sum([(p, q)])


def laplacian(p: GradedOperator, p_star: GradedOperator) -> GradedOperator:
    """P-Laplacian [[P*, P]] from P and its adjoint P*."""
    return graded_commutator(p_star, p)


# ---------------------------------------------------------------------------
# Koszul reconstruction, derivations and algebraic order

IntForm = dict[int, Coords]  # form mask -> coordinates over a denominator kept beside it
# coefficient forms prepared for the Koszul sum: (J, entries of beta_J), each
# entry (mask b, sign key K(b) ^ K(J), coordinates, negated coordinates)
Prepared = list[tuple[int, list[tuple[int, int, Coords, Coords]]]]


def _integral(beta: dict[int, Form]) -> tuple[dict[int, IntForm], int, int]:
    """The coefficient forms over one common denominator: (coordinates keyed
    by J, q, d); zero forms are dropped."""
    q, d, scaled = common([v for form in beta.values() for v in form.coeffs.values()])
    values = iter(scaled)  # zip reads each form's keys first, so it takes only their values
    return {jm: dict(zip(form.coeffs, values)) for jm, form in beta.items() if form.coeffs}, q, d


def _prepare(coeffs: dict[int, IntForm]) -> Prepared:
    """The coefficient forms as the Koszul sums read them, in the order
    of ``coeffs`` and of each form: every entry carries K(b) ^ K(J) and its
    negated coordinates, so that a term's sign takes one ``bit_count``."""
    prepared: Prepared = []
    for jm, form in coeffs.items():
        kj = sign_key(jm)
        prepared.append((jm, [(bm, sign_key(bm) ^ kj, u, (-u[0], -u[1], -u[2], -u[3])) for bm, u in form.items()]))
    return prepared


def _koszul_column(beta: Prepared, mask: int) -> IntForm:
    """Column ``mask`` of sum_J L_{beta_J} iota_J: the terms with J inside
    mask, summed as coordinates over the denominator of ``beta``.

    With rest = mask - J, u^mask = (-1)^popcount(rest & K(J)) u^J ^ u^rest
    and u^b ^ u^rest = (-1)^popcount(rest & K(b)) u^(b|rest), so the term of
    u^b enters with the sign (-1)^popcount(rest & (K(b) ^ K(J)))."""
    col: IntForm = {}
    for jm, form in beta:
        if jm & mask != jm:
            continue
        rest = mask ^ jm
        for bm, key, u, neg in form:
            if bm & rest:
                continue
            if (rest & key).bit_count() & 1:
                u = neg
            target = bm | rest
            t = col.get(target)
            if t is None:
                col[target] = u
                continue
            v = (t[0] + u[0], t[1] + u[1], t[2] + u[2], t[3] + u[3])  # ``scalars.add``, one q
            if v[0] or v[1] or v[2] or v[3]:
                col[target] = v
            else:
                del col[target]
    return col


def _koszul_integral(p: GradedOperator, r: int) -> tuple[dict[int, IntForm], Prepared]:
    """beta_J for |J| <= r, read off the columns of P on masks of degree <= r,
    as coordinates over P's denominator: in order of increasing degree,
    beta_M = P(u^M) - sum eps beta_J ^ u^{M-J} over the proper subsets J of
    M, where u^M = eps u^J ^ u^{M-J}.  Zero coefficients are omitted, and
    each coefficient is also prepared for the Koszul sums once, as it is
    found."""
    beta: dict[int, IntForm] = {}
    prepared: Prepared = []
    column = p._lookup()
    for mask in sorted(_low_masks(p.dim, r), key=int.bit_count):
        b = dict(column(mask) or {})
        for row, u in _koszul_column(prepared, mask).items():
            t = b.get(row)
            if t is None:
                b[row] = (-u[0], -u[1], -u[2], -u[3])
                continue
            v = (t[0] - u[0], t[1] - u[1], t[2] - u[2], t[3] - u[3])
            if v[0] or v[1] or v[2] or v[3]:
                b[row] = v
            else:
                del b[row]
        if b:
            beta[mask] = b
            prepared += _prepare({mask: b})
    return beta, prepared


def reconstruct(dim: int, beta: dict[int, Form], degree: int | None) -> GradedOperator:
    """sum_J L_{beta_J} iota_J for coefficient forms keyed by the mask J,
    held by them (``_koszul_sum``); an entry off a declared degree raises
    ValueError as the constructor does."""
    coeffs, q, d = _integral(beta)
    return _koszul_sum(dim, _prepare(coeffs), q, d, degree)


def _koszul_sum(dim: int, coeffs: Prepared, q: int, d: int, degree: int | None) -> GradedOperator:
    """The operator held by prepared coefficient forms over q, normalized on
    them (the lattice argument above).  A coefficient entry u^b of beta_J
    has degree |b| - |J|; with one off the declared degree the store is
    built, and its first entry off the degree raises ValueError."""
    div, q, d, real = _normal(q, d, False, {u for _, form in coeffs for _, _, u, _ in form})
    if div:
        coeffs = [(jm, [(bm, key, div(u), div(neg)) for bm, key, u, neg in form]) for jm, form in coeffs]
    if degree is not None and any(
        bm.bit_count() - jm.bit_count() != degree for jm, form in coeffs for bm, _, _, _ in form
    ):
        _check_degree(_reconstruct(dim, coeffs), degree)
    bound = max((jm.bit_count() for jm, _ in coeffs), default=0)
    return object.__new__(GradedOperator)._set(dim, degree, q, d, real, None, bound, coeffs)


def _reconstruct(dim: int, coeffs: Prepared) -> Store:
    """The store of prepared coefficient forms: each entry u^b of beta_J,
    in prepared order, is scattered into every column J | rest, rest
    disjoint from J | b, and each column gets its terms in the order of its
    ``_koszul_column`` scan, so its key order is that scan's.  The columns
    are summed one block of equal high bits at a time, so that only one
    block's partial sums are held, and come in increasing mask order."""
    shared: dict[Coords, Coords] = {}
    share = shared.setdefault
    coeffs = [(jm, [(bm, key, share(u, u), share(neg, neg)) for bm, key, u, neg in form]) for jm, form in coeffs]
    low = (1 << (dim - dim // 2)) - 1
    store: Store = {}
    for high in range(0, 1 << dim, low + 1):
        block: Store = {m: {} for m in range(high, high + low + 1)}
        for jm, form in coeffs:
            if jm & ~low & ~high:
                continue
            above = high & ~jm  # the high bits of rest
            for bm, key, u, neg in form:
                if above & bm:
                    continue
                free = below = low & ~(jm | bm)
                while True:
                    rest = above | below
                    col, target = block[jm | rest], bm | rest
                    t = neg if (rest & key).bit_count() & 1 else u
                    x = col.get(target)
                    if x is None:
                        col[target] = t
                    else:
                        v = (x[0] + t[0], x[1] + t[1], x[2] + t[2], x[3] + t[3])  # ``scalars.add``, one q
                        if v[0] or v[1] or v[2] or v[3]:
                            col[target] = share(v, v)
                        else:
                            del col[target]
                    if not below:
                        break
                    below = (below - 1) & free
        store.update((m, col) for m, col in block.items() if col)
    return store


def from_low_columns(p: GradedOperator, r: int) -> GradedOperator:
    """The operator of order <= r whose columns of degree <= r are those of
    P, held by their Koszul coefficients: P itself exactly when P has order
    <= r.  Only those columns of P are read."""
    return _koszul_sum(p.dim, _koszul_integral(p, r)[1], p.q, p.d, p.degree)


@functools.cache
def _low_masks(dim: int, r: int) -> tuple[int, ...]:
    """The masks of degree <= r, increasing."""
    return tuple(m for m in range(1 << dim) if m.bit_count() <= r)


def low_columns(p: GradedOperator, r: int) -> GradedOperator:
    """P on its columns of degree <= r only, with no order bound.  Two
    operators of order <= r are equal exactly when these are, since each
    is the reconstruction of them (``from_low_columns``).  An operator
    held by its Koszul coefficients sums these columns only."""
    return GradedOperator._normalized(p.dim, p.degree, p.q, p.d, False, p._low_store(r))


def _coframe_coefficients(dim: int, images: list[Form]) -> dict[int, Form]:
    if len(images) != dim:
        raise ValueError(f"need {dim} coframe images, got {len(images)}")
    return {1 << i: f for i, f in enumerate(images) if not f.is_zero()}


def derivation_from_one_forms(dim: int, images: list[Form], degree: int | None = 1) -> GradedOperator:
    """Unique derivation with the given coframe images, zero on 1.

    It is sum_i L_{images[i]} iota_i; the Koszul sum carries the sign of an
    odd (degree 1) or even (degree 0) derivation by itself.
    """
    return reconstruct(dim, _coframe_coefficients(dim, images), degree)


def algebra_map_blocks(dim: int, images: list[Form], masks=None):
    """The degree-0 algebra map u^i -> images[i] (1-forms), one block per
    degree: for k = 0, ..., dim in turn, the operator of its columns on the
    forms of degree k.  Given ``masks``, a block holds only the columns that
    those masks need: each mask and the chain mask minus its lowest index,
    and so on down to the empty mask.

    Column m of degree k is images[i] ^ (column m - i of degree k - 1), i
    the lowest index of m, summed as coordinates over the denominator of
    that block times the common denominator of the images, so a block needs
    only the one before it.  It is literally the Scalar expansion, one
    ``Form.wedge`` per index, row orders included; the columns of a block
    come in increasing mask order.
    """
    if len(images) != dim:
        raise ValueError(f"need {dim} coframe images, got {len(images)}")
    if any(m.bit_count() != 1 for f in images for m in f.coeffs):
        raise ValueError("a degree-0 algebra map needs 1-form images")
    coeffs, qg, dg = _integral({1 << i: f for i, f in enumerate(images)})
    gens = [list(coeffs.get(1 << i, {}).items()) for i in range(dim)]
    wanted = set() if masks is not None else range(1 << dim)
    for m in masks or ():
        while m not in wanted:
            wanted.add(m)
            m &= m - 1
    by_degree: list[list[int]] = [[] for _ in range(dim + 1)]
    for m in sorted(wanted):
        by_degree[m.bit_count()].append(m)
    block = object.__new__(GradedOperator)._set(dim, 0, 1, 1, True, {0: {0: (1, 0, 0, 0)}})
    yield block
    for k in range(1, dim + 1):
        d = join(block.d, dg)
        prev = block.coords
        shared: dict[Coords, Coords] = {}
        share = shared.setdefault
        store: Store = {}
        for m in by_degree[k]:
            low = m & -m
            rest = prev.get(m ^ low)
            gen = gens[low.bit_length() - 1]
            if rest is None or not gen:
                continue
            col: dict[int, list[int]] = {}
            for b, (a1, b1, c1, e1) in gen:
                below = sign_key(b)
                db1, de1 = d * b1, d * e1
                for r, (a2, b2, c2, e2) in rest.items():
                    if r & b:
                        continue
                    # the product of the two entries, as ``scalars.product``
                    ra = a1 * a2 + db1 * b2 - de1 * e2 - c1 * c2
                    rb = a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2
                    ia = a1 * c2 + c1 * a2 + db1 * e2 + de1 * b2
                    ib = a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2
                    if (r & below).bit_count() & 1:  # u^b ^ u^r = -u^{b+r}
                        ra, rb, ia, ib = -ra, -rb, -ia, -ib
                    target = r | b
                    acc = col.get(target)
                    if acc is None:
                        col[target] = [ra, rb, ia, ib]
                        continue
                    acc[0] += ra
                    acc[1] += rb
                    acc[2] += ia
                    acc[3] += ib
                    if not (acc[0] or acc[1] or acc[2] or acc[3]):
                        del col[target]
            if col:
                store[m] = {r: share(t, t) for r, t in zip(col, map(tuple, col.values()))}
        block = GradedOperator._normalized(dim, 0, block.q * qg, d, False, store)
        yield block


def algebra_map_apply(images: list[Form], forms: list[Form]) -> list[Form]:
    """The images of forms under the algebra map u^i -> images[i], from the
    columns of ``algebra_map_blocks`` that their supports need, kept nowhere."""
    masks = [m for f in forms for m in f.coeffs]
    degrees = {m.bit_count() for m in masks}
    out = [Form.zero(len(images)) for _ in forms]
    for k, block in zip(range(max(degrees, default=-1) + 1), algebra_map_blocks(len(images), images, masks)):
        if k in degrees:
            out = [acc + block.apply(f) for acc, f in zip(out, forms)]
    return out


def algebraic_order_at_most(p: GradedOperator, r: int) -> bool:
    """Whether P lies in the algebraic-order filtration level r.

    Level 0 is exactly the multiplication operators; level r requires
    [[P, L_beta]] to lie in level r-1 for every form beta.  By Koszul's
    theorem that holds exactly when P equals the reconstruction from its
    columns of degree <= r.
    """
    if r < 0:
        raise ValueError("order bound must be nonnegative")
    return p == from_low_columns(p, r)
