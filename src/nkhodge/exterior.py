"""Complexified exterior algebra of a 2n-dimensional inner-product space.

Basis multi-indices are bitmasks over {1, ..., 2n} (bit ``i-1`` set means
index ``i`` is present); the canonical form of a multi-index is the mask
itself, and wedge signs come from transposition parity, read off one sign
key per mask: u^m ^ u^r = (-1)^popcount(r & K(m)) u^(m|r) for disjoint m
and r, with K(m) (``sign_key``) the xor over x in m of the bits below x.
``Form.wedge`` and, in ``operators``, the Koszul sums and the algebra maps
all read this one rule.
Forms are sparse maps mask -> Scalar with zero coefficients never stored.

``GramData`` holds the metric on 1-forms and everything derived from it:
the inverse metric (which is the pairing of coframe elements, computed by
``linalg.inverse``, behind ``sharp``), the exact LDL^T factorization that
orthogonalizes a coupled coframe, and, for a diagonal metric, the norm
weights w(m) = 1/<u^m, u^m>, each mask's computed on its first request
and kept.  The weights carry both the Hermitian pairing ``inner`` and
every adjoint (a weighted conjugate transpose, which reads the weights of
the masks its operand touches only); both refuse a coupled metric, which
is orthogonalized first.  The LDL^T runs when the
data is built and doubles as the positive-definiteness test: by
Sylvester's criterion every pivot is positive exactly when every leading
minor is.
"""

from __future__ import annotations

from .linalg import add_scaled, inverse
from .scalars import ONE, ZERO, Scalar, common, join


# ---------------------------------------------------------------------------
# multi-index helpers

def indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def sign_key(mask: int) -> int:
    """K(mask), the xor over the indices x in mask of the bits below x.

    For disjoint masks m and r, u^m ^ u^r = (-1)^popcount(r & K(m)) u^(m|r):
    popcount(r & K(m)) has the parity of the number of pairs x in m, y in r
    with y < x.  Bit p of K(m) is the parity of the bits of m above p, so
    K(m) is the suffix xor of m shifted down by one: shifts by 1, 2, 4 and 8
    cover masks of up to 16 indices, and wider masks take further doublings.
    """
    x = mask ^ (mask >> 1)
    x ^= x >> 2
    x ^= x >> 4
    x ^= x >> 8
    s = 16
    while mask >> s:
        x ^= x >> s
        s <<= 1
    return x >> 1


def graded_lex_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key: by degree, then lexicographic on the index tuple."""
    return (mask.bit_count(), indices_from_mask(mask))


def mask_label(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "^e".join(str(i) for i in indices_from_mask(mask))


# ---------------------------------------------------------------------------
# forms

class Form:
    """Sparse complex-valued form; possibly inhomogeneous."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict[int, Scalar] | None = None):
        self.dim = dim
        self.coeffs = {m: s for m, s in (coeffs or {}).items() if not s.is_zero()}

    @classmethod
    def zero(cls, dim: int) -> Form:
        return cls(dim)

    @classmethod
    def basis(cls, dim: int, mask: int, coeff: Scalar = ONE) -> Form:
        return cls(dim, {mask: coeff})

    @classmethod
    def one_form(cls, dim: int, coeffs: list[Scalar]) -> Form:
        return cls(dim, {1 << i: s for i, s in enumerate(coeffs)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        """Homogeneous degree, or None for a mixed or zero form."""
        degs = {m.bit_count() for m in self.coeffs}
        return degs.pop() if len(degs) == 1 else None

    def terms(self):
        for m in sorted(self.coeffs, key=graded_lex_key):
            yield m, self.coeffs[m]

    def __add__(self, other: Form) -> Form:
        self._check(other)
        return Form(self.dim, add_scaled(dict(self.coeffs), other.coeffs))

    def __sub__(self, other: Form) -> Form:
        return self + (-other)

    def __neg__(self) -> Form:
        return Form(self.dim, {m: -s for m, s in self.coeffs.items()})

    def scale(self, s: Scalar) -> Form:
        if s.is_zero():
            return Form(self.dim)
        return Form(self.dim, {m: v * s for m, v in self.coeffs.items()})

    def wedge(self, other: Form) -> Form:
        self._check(other)
        out: dict[int, Scalar] = {}
        for m1, s1 in self.coeffs.items():
            key = sign_key(m1)
            for m2, s2 in other.coeffs.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                v = s1 * s2
                if (m2 & key).bit_count() & 1:
                    v = -v
                t = out.get(m)
                v = v if t is None else t + v
                if v.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = v
        return Form(self.dim, out)

    def conjugate(self) -> Form:
        return Form(self.dim, {m: s.conjugate() for m, s in self.coeffs.items()})

    def contract_vector(self, vec: list[Scalar]) -> Form:
        """Interior product by a (complex) vector given in frame coordinates."""
        out: dict[int, Scalar] = {}
        for m, s in self.coeffs.items():
            rem = m
            pos = 0
            while rem:
                low = rem & -rem
                i = low.bit_length() - 1
                v = vec[i]
                if not v.is_zero():
                    coeff = s * v
                    if pos & 1:
                        coeff = -coeff
                    key = m ^ low
                    t = out.get(key)
                    coeff = coeff if t is None else t + coeff
                    if coeff.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = coeff
                rem ^= low
                pos += 1
        return Form(self.dim, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

    def _check(self, other: Form) -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def max_abs_approx(self) -> float:
        return max((abs(s.approx()) for s in self.coeffs.values()), default=0.0)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Form(0)"
        parts = [f"({s.literal()})*{mask_label(m)}" for m, s in self.terms()]
        return "Form(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# metric data

class GramData:
    """Metric on 1-forms plus every derived pairing the operators need."""

    def __init__(self, g: list[list[Scalar]]):
        self.dim = len(g)
        self.g = g
        for i in range(self.dim):
            for j in range(self.dim):
                if not g[i][j].is_real():
                    raise ValueError("metric entries must be real")
                if g[i][j] != g[j][i]:
                    raise ValueError(f"metric not symmetric at ({i + 1},{j + 1})")
        self._ldl: tuple[list[list[Scalar]], list[Scalar]] | None = None
        self.ldl()
        self.g_inv = inverse(g)
        self._ginv_rows = [
            {j: v for j, v in enumerate(row) if not v.is_zero()} for row in self.g_inv
        ]
        diagonal = all(g[i][j].is_zero() for i in range(self.dim) for j in range(self.dim) if i != j)
        # w(m) and 1/w(m) by mask, each computed on first request (None: coupled)
        self._w: dict[int, Scalar] | None = {0: ONE} if diagonal else None
        self._inv: dict[int, Scalar] = {}

    # -- pairings ---------------------------------------------------------

    def inner(self, a: Form, b: Form) -> Scalar:
        """Hermitian pairing, linear in the first slot: sum_m a_m conj(b_m) / w(m).

        The coframe monomials are pairwise orthogonal with <u^m, u^m> = 1/w(m)
        (``weight``), so a coupled metric raises ValueError.
        """
        if a.dim != self.dim or b.dim != self.dim:
            raise ValueError("dimension mismatch with metric")
        self._diagonal()
        acc = ZERO
        for m, sa in a.coeffs.items():
            sb = b.coeffs.get(m)
            if sb is not None:
                acc = acc + sa * sb.conjugate() * self.inverse_weight(m)
        return acc

    def sharp(self, one_form: Form) -> list[Scalar]:
        """Metric-dual vector of a 1-form, in frame coordinates."""
        vec = [ZERO] * self.dim
        for m, s in one_form.coeffs.items():
            if m.bit_count() != 1:
                raise ValueError("sharp expects a 1-form")
            i = m.bit_length() - 1
            for j, gij in self._ginv_rows[i].items():
                vec[j] = vec[j] + s * gij
        return vec

    # -- orthogonalization and norm weights -----------------------------------

    def ldl(self) -> tuple[list[list[Scalar]], list[Scalar]]:
        """g = M diag(D) M^T with M unit lower triangular; computed once, at init.

        By Sylvester's criterion D_{k-1} is leading minor k over leading
        minor k-1, so the first pivot D_{k-1} <= 0 names the first leading
        minor that is not positive.
        """
        if self._ldl is None:
            n = self.dim
            m = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
            dvals = [ZERO] * n
            for j in range(n):
                acc = self.g[j][j]
                for k in range(j):
                    acc = acc - m[j][k] * m[j][k] * dvals[k]
                if acc.sign() <= 0:
                    raise ValueError(f"metric not positive-definite (leading minor {j + 1})")
                dvals[j] = acc
                for i in range(j + 1, n):
                    s = self.g[i][j]
                    for k in range(j):
                        s = s - m[i][k] * m[j][k] * dvals[k]
                    m[i][j] = s / dvals[j]
            self._ldl = (m, dvals)
        return self._ldl

    def _diagonal(self) -> dict[int, Scalar]:
        """The memo of the weights; a coupled metric raises ValueError."""
        if self._w is None:
            raise ValueError("norm weights need a diagonal metric; orthogonalize the model first")
        return self._w

    def weight(self, mask: int) -> Scalar:
        """w(mask) = prod_{i in mask} g_ii = 1/<u^mask, u^mask>, by the product
        recurrence w(m) = w(m - i) g_ii over the lowest index i of m, each
        mask computed once.  Diagonal metrics only: a coupled one raises
        ValueError (orthogonalize the model first,
        ``LieAlgebraModel.orthogonalized``)."""
        weights = self._diagonal()
        w = weights.get(mask)
        if w is None:
            low = mask & -mask
            i = low.bit_length() - 1
            w = weights[mask] = self.weight(mask ^ low) * self.g[i][i]
        return w

    def inverse_weight(self, mask: int) -> Scalar:
        """1/w(mask) (``Scalar.inverse`` of ``weight``), computed once per mask."""
        v = self._inv.get(mask)
        if v is None:
            v = self._inv[mask] = self.weight(mask).inverse()
        return v

    def integral_weights(self, columns, rows) -> tuple[int, int, dict, int, dict]:
        """The weights of the given masks only, as integer data over one
        denominator each: (d, qw, w, qi, inv) with w(m) = (x + y sqrt d) / qw
        for (x, y, 0, 0) = w[m], m in ``columns``, and 1/w(m) = (x + y sqrt d)
        / qi for (x, y, 0, 0) = inv[m], m in ``rows``."""
        columns, rows = list(columns), list(rows)
        qw, dw, w = common([self.weight(m) for m in columns])
        qi, di, inv = common([self.inverse_weight(m) for m in rows])
        return join(dw, di), qw, dict(zip(columns, w)), qi, dict(zip(rows, inv))
