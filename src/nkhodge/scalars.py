"""Exact scalars in the tower Q < Q(sqrt(d)) < Q(sqrt(d))(i).

Every number handled by this package is a ``Scalar``: four integer
coordinates ``(a, b, c, e)`` over a common positive denominator ``q``,
representing ``((a + b*w) + i*(c + e*w)) / q`` with ``w = sqrt(d)`` and
``d`` a squarefree positive integer.  ``d == 1`` means the real quadratic
extension is absent (the ``w`` coordinates are folded away), so plain
rationals are field-agnostic and mix freely with any extension.

Arithmetic is exact and closed; equality is coordinate-wise on the unique
normalized representative (gcd-reduced, positive denominator, trivial
extension folded).  Floating point appears only in :meth:`Scalar.approx`,
which exists purely for diagnostics.
"""

from __future__ import annotations

import math
import re


def _squarefree(d: int) -> bool:
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


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
            a, b = a + b, 0
            c, e = c + e, 0
        if b == 0 and e == 0:
            d = 1
        g = math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(e)))
        g = math.gcd(g, q)
        if g > 1:
            a //= g
            b //= g
            c //= g
            e //= g
            q //= g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    @classmethod
    def _normalized(cls, a: int, b: int, c: int, e: int, q: int, d: int) -> Scalar:
        """A scalar from coordinates that are already normalized (no gcd)."""
        out = object.__new__(cls)
        put = object.__setattr__
        put(out, "a", a)
        put(out, "b", b)
        put(out, "c", c)
        put(out, "e", e)
        put(out, "q", q)
        put(out, "d", d)
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt_ext(cls, d: int, num: int = 1, den: int = 1) -> Scalar:
        """num/den times sqrt(d)."""
        return cls(0, num, 0, 0, den, d)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.e == 0

    def is_real(self) -> bool:
        return self.c == 0 and self.e == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field bookkeeping ---------------------------------------------

    def _join(self, other: Scalar) -> int:
        """Common extension parameter, or raise on a genuine mismatch."""
        if self.d == other.d:
            return self.d
        if self.d == 1:
            return other.d
        if other.d == 1:
            return self.d
        raise ValueError(
            f"incompatible extensions sqrt({self.d}) vs sqrt({other.d})"
        )

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        if other.a == 0 and other.b == 0 and other.c == 0 and other.e == 0:
            return self
        if self.a == 0 and self.b == 0 and self.c == 0 and self.e == 0:
            return other
        d = self._join(other)
        q1, q2 = self.q, other.q
        return Scalar(
            self.a * q2 + other.a * q1,
            self.b * q2 + other.b * q1,
            self.c * q2 + other.c * q1,
            self.e * q2 + other.e * q1,
            q1 * q2,
            d,
        )

    def __sub__(self, other: Scalar) -> Scalar:
        return self + (-other)

    def __neg__(self) -> Scalar:
        return Scalar._normalized(-self.a, -self.b, -self.c, -self.e, self.q, self.d)

    def __mul__(self, other: Scalar) -> Scalar:
        if self.a == 0 and self.b == 0 and self.c == 0 and self.e == 0:
            return self
        if other.a == 0 and other.b == 0 and other.c == 0 and other.e == 0:
            return other
        d = self._join(other)
        a1, b1, c1, e1 = self.a, self.b, self.c, self.e
        a2, b2, c2, e2 = other.a, other.b, other.c, other.e
        if c1 == 0 == e1 and c2 == 0 == e2:
            # real * real fast path
            return Scalar(
                a1 * a2 + d * b1 * b2,
                a1 * b2 + b1 * a2,
                0,
                0,
                self.q * other.q,
                d,
            )
        # (x1 + i y1)(x2 + i y2), each x,y in Q(sqrt d)
        ra = a1 * a2 + d * b1 * b2 - c1 * c2 - d * e1 * e2
        rb = a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2
        ia = a1 * c2 + c1 * a2 + d * (b1 * e2 + e1 * b2)
        ib = a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2
        return Scalar(ra, rb, ia, ib, self.q * other.q, d)

    def _real_inverse(self) -> Scalar:
        # inverse of a + b*w: (a - b*w) / (a^2 - d b^2), times q
        a, b, q, d = self.a, self.b, self.q, self.d
        n = a * a - d * b * b
        if n == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(q * a, -q * b, 0, 0, n, d)

    def inverse(self) -> Scalar:
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.is_real():
            return self._real_inverse()
        n = self * self.conjugate()  # real and nonzero
        return self.conjugate() * n._real_inverse()

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
        lcm = 1
        for v in dens.values():
            lcm = lcm * v // math.gcd(lcm, v)
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

