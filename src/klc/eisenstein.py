"""Exact arithmetic in Z[zeta], zeta = exp(2*pi*i/3).

Every character sum in this package counts its terms by the residue of
their trace (char_sum, or a convolution for the K table) into one value of
this ring, so identities are checked with exact equality; no float is formed.
A value a + b*zeta is stored as the integer pair (a, b) and reduced with
zeta^2 = -1 - zeta.  Real values are the ones with b == 0; extracting an
integer from a value with b != 0 raises rather than rounding.
"""

from __future__ import annotations

from .errors import VerificationError


class CycInt:
    """An element a + b*zeta of Z[zeta] with arbitrary-precision components."""

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        self.a = a
        self.b = b

    def __add__(self, other):
        if isinstance(other, CycInt):
            return CycInt(self.a + other.a, self.b + other.b)
        return NotImplemented

    def __mul__(self, other):
        # (a1 + b1 z)(a2 + b2 z) = a1 a2 - b1 b2 + (a1 b2 + a2 b1 - b1 b2) z
        if isinstance(other, CycInt):
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            return CycInt(a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 - b1 * b2)
        if isinstance(other, int):
            return CycInt(self.a * other, self.b * other)
        return NotImplemented

    def two_re(self) -> int:
        """Twice the real part, an ordinary integer: 2*Re(a + b*zeta) = 2a - b."""
        return 2 * self.a - self.b

    def is_real(self) -> bool:
        return self.b == 0

    def to_int(self) -> int:
        if self.b != 0:
            raise VerificationError(f"{self!r} is not a rational integer")
        return self.a

    def __eq__(self, other) -> bool:
        if isinstance(other, CycInt):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __repr__(self) -> str:
        return f"CycInt({self.a}, {self.b})"


ZERO = CycInt(0, 0)
ONE = CycInt(1, 0)
ZETA = CycInt(0, 1)

_ZETA_POWERS = (ONE, ZETA, CycInt(-1, -1))


def additive_char(field, x: int) -> CycInt:
    """The canonical additive character lambda(x) = zeta^trace(x)."""
    return _ZETA_POWERS[field.trace(x)]


def char_sum(field, terms) -> CycInt:
    """sum of w * lambda(x) over the (x, w) pairs of terms, w an integer: w goes
    into the bucket c_t of t = trace(x), and c_0 + c_1 zeta + c_2 zeta^2 is
    (c_0 - c_2) + (c_1 - c_2) zeta since zeta^2 = -1 - zeta."""
    c = [0, 0, 0]
    trace = field.trace
    for x, w in terms:
        c[trace(x)] += w
    return CycInt(c[0] - c[2], c[1] - c[2])
