"""Exact scalars in the tower Q < Q(sqrt(d)) < Q(sqrt(d))(i).

Every number handled by this package is a ``Scalar``: four integer
coordinates ``(a, b, c, e)`` over a common positive denominator ``q``,
representing ``((a + b*w) + i*(c + e*w)) / q`` with ``w = sqrt(d)`` and
``d`` a squarefree positive integer.  ``d == 1`` means the real quadratic
extension is absent (the ``w`` coordinates are folded away), so plain
rationals are field-agnostic and mix freely with any extension.

Arithmetic is exact and closed; equality is coordinate-wise on the unique
normalized representative (gcd-reduced, positive denominator, trivial
extension folded).  The arithmetic is written once, as the field kernel
below: functions on those integer coordinates, which ``Scalar``, the
elimination in ``linalg`` and the operator store in ``operators`` share.
Floating point appears only in :meth:`Scalar.approx`, which exists purely
for diagnostics.
"""

from __future__ import annotations

import math
import re


def squarefree(d: int) -> bool:
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


# -- the field kernel -----------------------------------------------------------
# An entry is the (a, b, c, e, q) of ((a + b w) + i (c + e w)) / q, w = sqrt(d),
# normalized when the gcd of all five is 1, q > 0 and b = e = 0 for d = 1; d
# travels beside the entries.  ``operators`` keeps only the (a, b, c, e) of
# each entry, over a denominator shared by the whole operator.

Entry = tuple[int, int, int, int, int]


def join(d1: int, d2: int) -> int:
    """The d of a field holding both: d = 1 mixes with any d, and two
    different d > 1 raise ValueError."""
    if d1 == d2 or d2 == 1:
        return d1
    if d1 == 1:
        return d2
    raise ValueError(f"incompatible extensions sqrt({d1}) vs sqrt({d2})")


def reduce(a: int, b: int, c: int, e: int, q: int) -> Entry:
    """The normalized entry of ((a + b w) + i (c + e w)) / q for q > 0.

    Trial division first: along a Bareiss chain q divides every coordinate,
    and a remainder is what the gcd would reduce next anyway.
    """
    if q == 1:
        return (a, b, c, e, 1)
    a1, ra = divmod(a, q)
    if not (b or c or e):
        if not ra:
            return (a1, 0, 0, 0, 1)
        g = math.gcd(ra, q)
        return (a, 0, 0, 0, q) if g == 1 else (a // g, 0, 0, 0, q // g)
    b1, rb = divmod(b, q)
    c1, rc = divmod(c, q)
    e1, re = divmod(e, q)
    if not (ra or rb or rc or re):
        return (a1, b1, c1, e1, 1)
    g = math.gcd(ra, rb, rc, re, q)
    if g == 1:
        return (a, b, c, e, q)
    return (a // g, b // g, c // g, e // g, q // g)


def product(x: Entry, y: Entry, d: int) -> Entry:
    """x y as an unreduced entry, with fast paths for rational and real factors."""
    a1, b1, c1, e1, q1 = x
    a2, b2, c2, e2, q2 = y
    if not (b1 or c1 or e1 or b2 or c2 or e2):
        return (a1 * a2, 0, 0, 0, q1 * q2)
    if not (c1 or e1 or c2 or e2):
        return (a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2, 0, 0, q1 * q2)
    return (
        a1 * a2 + d * (b1 * b2 - e1 * e2) - c1 * c2,
        a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2,
        a1 * c2 + c1 * a2 + d * (b1 * e2 + e1 * b2),
        a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2,
        q1 * q2,
    )


def add(x: Entry, y: Entry) -> Entry:
    """x + y as an unreduced entry."""
    a1, b1, c1, e1, q1 = x
    a2, b2, c2, e2, q2 = y
    if q1 == q2:
        return (a1 + a2, b1 + b2, c1 + c2, e1 + e2, q1)
    return (a1 * q2 + a2 * q1, b1 * q2 + b2 * q1, c1 * q2 + c2 * q1, e1 * q2 + e2 * q1, q1 * q2)


def inverse(x: Entry, d: int) -> Entry:
    """1 / x, normalized: q times the other conjugates over the norm, which
    is 0 only for x = 0 (ZeroDivisionError)."""
    a, b, c, e, q = x
    if c or e:
        # 1 / (u + i v) = (u - i v) / (u^2 + v^2), and u^2 + v^2 = r + s w is real
        r, s = a * a + d * (b * b + e * e) + c * c, 2 * (a * b + c * e)
        a, b, c, e, _ = product((a, b, -c, -e, 1), (r, -s, 0, 0, 1), d)
        n = r * r - d * s * s
    else:
        b, n = -b, a * a - d * b * b
    if n == 0:
        raise ZeroDivisionError("scalar division by zero")
    if n < 0:
        a, b, c, e, n = -a, -b, -c, -e, -n
    return reduce(q * a, q * b, q * c, q * e, n)


def complexity(t: Entry) -> int:
    """Bit size of a normalized entry; ``int.bit_length`` ignores the sign."""
    a, b, c, e, q = t
    if b or c or e:
        return a.bit_length() + b.bit_length() + c.bit_length() + e.bit_length() + q.bit_length()
    return a.bit_length() + q.bit_length()


def common(values: list[Scalar]) -> tuple[int, int, list[tuple[int, int, int, int]]]:
    """Scalars over one denominator: (q, d, coords) with q the lcm of their
    denominators, d the join of their fields and coords[k] the (a, b, c, e)
    of values[k] over q.  A normalized entry goes back through
    ``Scalar._normalized``."""
    q = d = 1
    for v in values:
        if q % v.q:
            q = math.lcm(q, v.q)
        if v.d != d and v.d != 1:
            d = join(d, v.d)
    return q, d, [(v.a * (f := q // v.q), v.b * f, v.c * f, v.e * f) for v in values]


class Scalar:
    """One element of Q(sqrt(d))(i), immutable and hashable."""

    __slots__ = ("a", "b", "c", "e", "q", "d")

    def __init__(self, a: int, b: int, c: int, e: int, q: int = 1, d: int = 1):
        if q == 0:
            raise ZeroDivisionError("scalar denominator is zero")
        if q < 0:
            a, b, c, e, q = -a, -b, -c, -e, -q
        if d == 1 and (b or e):
            # sqrt(1) = 1: fold into the rational coordinates
            a, b, c, e = a + b, 0, c + e, 0
        a, b, c, e, q = reduce(a, b, c, e, q)
        put = object.__setattr__
        put(self, "a", a)
        put(self, "b", b)
        put(self, "c", c)
        put(self, "e", e)
        put(self, "q", q)
        put(self, "d", d if b or e else 1)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    @classmethod
    def _normalized(cls, a: int, b: int, c: int, e: int, q: int, d: int) -> Scalar:
        """The scalar of a normalized entry (no gcd) of the field with this d;
        d is folded to 1 when the entry has no sqrt(d) part."""
        out = object.__new__(cls)
        put = object.__setattr__
        put(out, "a", a)
        put(out, "b", b)
        put(out, "c", c)
        put(out, "e", e)
        put(out, "q", q)
        put(out, "d", d if b or e else 1)
        return out

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.e == 0

    def is_real(self) -> bool:
        return self.c == 0 and self.e == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic, through the field kernel ------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        if other.a == 0 and other.b == 0 and other.c == 0 and other.e == 0:
            return self
        if self.a == 0 and self.b == 0 and self.c == 0 and self.e == 0:
            return other
        d = self.d if self.d == other.d else join(self.d, other.d)
        t = add((self.a, self.b, self.c, self.e, self.q), (other.a, other.b, other.c, other.e, other.q))
        return Scalar._normalized(*reduce(*t), d)

    def __sub__(self, other: Scalar) -> Scalar:
        return self + (-other)

    def __neg__(self) -> Scalar:
        return Scalar._normalized(-self.a, -self.b, -self.c, -self.e, self.q, self.d)

    def __mul__(self, other: Scalar) -> Scalar:
        if self.a == 0 and self.b == 0 and self.c == 0 and self.e == 0:
            return self
        if other.a == 0 and other.b == 0 and other.c == 0 and other.e == 0:
            return other
        d = self.d if self.d == other.d else join(self.d, other.d)
        t = product((self.a, self.b, self.c, self.e, self.q), (other.a, other.b, other.c, other.e, other.q), d)
        return Scalar._normalized(*reduce(*t), d)

    def inverse(self) -> Scalar:
        return Scalar._normalized(*inverse((self.a, self.b, self.c, self.e, self.q), self.d), self.d)

    def __truediv__(self, other: Scalar) -> Scalar:
        return self * other.inverse()

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar(1, 0, 0, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> Scalar:
        return Scalar._normalized(self.a, self.b, -self.c, -self.e, self.q, self.d)

    # -- order structure on the real subfield ----------------------------

    def sign(self) -> int:
        """Exact sign of a real scalar under the embedding w = +sqrt(d)."""
        if not self.is_real():
            raise ValueError("sign of a non-real scalar")
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 vs d b^2
        lhs, rhs = a * a, d * b * b
        if lhs == rhs:
            return 0
        big_is_a = lhs > rhs
        return (1 if a > 0 else -1) if big_is_a else (1 if b > 0 else -1)

    def __lt__(self, other: Scalar) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: Scalar) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: Scalar) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: Scalar) -> bool:
        return (self - other).sign() >= 0

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.d != other.d:
            return False
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.e == other.e
            and self.q == other.q
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.e, self.q, self.d))

    # -- presentation ------------------------------------------------------

    def approx(self) -> complex:
        """Float embedding for diagnostics only; never used for pass/fail."""
        w = math.sqrt(self.d)
        return complex((self.a + self.b * w) / self.q, (self.c + self.e * w) / self.q)

    def literal(self) -> str:
        """Canonical literal; ``parse`` accepts exactly these strings."""
        terms = []
        for num, suffix in ((self.a, ""), (self.b, "*w"), (self.c, "*I"), (self.e, "*w*I")):
            if num == 0:
                continue
            g = math.gcd(abs(num), self.q)
            mag, den = abs(num) // g, self.q // g
            body = f"{mag}/{den}" if den != 1 else f"{mag}"
            piece = body + suffix
            if not terms:
                terms.append(("-" if num < 0 else "") + piece)
            else:
                terms.append(("-" if num < 0 else "+") + piece)
        return "".join(terms) if terms else "0"

    _TERM = re.compile(r"([+-]?)(\d+)(?:/(\d+))?(\*w\*I|\*w|\*I)?")

    @classmethod
    def parse(cls, text: str, d: int = 1) -> Scalar:
        """Parse a canonical literal; reject anything non-canonical."""
        if not isinstance(text, str) or not text:
            raise ValueError("empty scalar literal")
        pos = 0
        coords = {None: 0, "*w": 0, "*I": 0, "*w*I": 0}
        dens = {None: 1, "*w": 1, "*I": 1, "*w*I": 1}
        while pos < len(text):
            m = cls._TERM.match(text, pos)
            if not m or m.start() != pos:
                raise ValueError(f"bad scalar literal {text!r}")
            sgn, num, den, suffix = m.groups()
            key = suffix if suffix else None
            n = int(num) * (-1 if sgn == "-" else 1)
            coords[key] = n
            dens[key] = int(den) if den else 1
            if dens[key] == 0:
                raise ValueError(f"zero denominator in scalar literal {text!r}")
            pos = m.end()
        lcm = math.lcm(*dens.values())
        value = cls(
            coords[None] * (lcm // dens[None]),
            coords["*w"] * (lcm // dens["*w"]),
            coords["*I"] * (lcm // dens["*I"]),
            coords["*w*I"] * (lcm // dens["*w*I"]),
            lcm,
            d,
        )
        if value.literal() != text:
            raise ValueError(f"non-canonical scalar literal {text!r}")
        return value

    def __repr__(self) -> str:
        return f"Scalar({self.literal()!r}, d={self.d})"


ZERO = Scalar(0, 0, 0, 0)
ONE = Scalar(1, 0, 0, 0)
MINUS_ONE = Scalar(-1, 0, 0, 0)
I = Scalar(0, 0, 1, 0)
HALF = Scalar(1, 0, 0, 0, 2)


def rational(p: int, q: int = 1) -> Scalar:
    return Scalar(p, 0, 0, 0, q)

