"""Arithmetic in GF(3^r).

Field elements are plain integers 0..q-1 encoding coefficient vectors in
base 3: the element sum(c_k * t^k) is stored as enc = sum(c_k * 3^k),
where t is the residue of the indeterminate modulo the field modulus.
The encoding is a bijection onto range(q) and fixes the canonical
enumeration order used everywhere in this package.

The modulus defaults to the monic irreducible polynomial of degree r
over GF(3) with the smallest encoding (constant term least significant):
t for r = 1, t^2 + 1 for r = 2, and so on.  Any other monic irreducible
of the right degree can be passed explicitly to work in a different
polynomial basis.

Multiplicative structure goes through discrete-log tables, so mul/inv/pow
are O(1) lookups.  The generator is the smallest element g of order q - 1:
each candidate gets the order test g^((q-1)/p) != 1 for every prime
p | q - 1, by square-and-multiply, and only the generator is walked; its
walk is the exp table.  Each step x -> x g of the walk is F_3-linear, so
it is the sum of two lookups, x g on the low k = ceil(r/2) digits of x and
on the high r - k digits, tabulated by 3^k + 3^(r-k) raw products.  Zero
is a slot of the log table, at 2(q - 1), and a second antilog table holds
the walk twice and then zeros, so mul is one lookup at the sum of the
logs; squares are read off the log parity (g^k is a square iff k is even).

Negation, the trace (F_3-linear, so fixed by the traces of the basis
monomials t^k) and the addition tables are built digit by digit at
construction and read by lookup.  For q <= 729 add reads the full q x q
table.  Above q = 729 it reads the split table T over 3^k x 3^k:
add(x, y) = T[x_h][y_h] 3^k + T[x_l][y_l] for the high and low digits
x = x_h 3^k + x_l.  _add_slow, digit arithmetic mod 3, is the oracle for
both.

Loops that add field elements by the hundred thousand (the group
membership checks and traces) read the addition table's rows, _rows,
instead of calling add: _rows[x][y] is x + y.  For q <= 729 _rows is the
full table itself; above it, a read-only view whose row x sums through T
as add does, so the same code runs at every q.

_pack and _unpack write a sequence of nonnegative ints into fixed-width
byte slots of one int and back (Kronecker substitution); charsums and
codes multiply polynomials as such ints.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FieldConfigError, VerificationError

_MAX_R = 8
# Full q x q addition tables are only worth the memory up to this size.
_ADD_TABLE_MAX_Q = 729


def _digits(x: int, n: int) -> list[int]:
    """Base-3 digits of x, least significant first, padded to length n."""
    out = []
    for _ in range(n):
        x, d = divmod(x, 3)
        out.append(d)
    return out


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _pack(values, width: int) -> int:
    """The nonnegative ints values as one int, values[i] in the width-byte
    slot i; a value too wide for its slot raises OverflowError."""
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def _unpack(x: int, n: int, width: int) -> list[int]:
    """The n width-byte slots of x, least significant first."""
    buf = x.to_bytes(n * width, "little")
    return [int.from_bytes(buf[k:k + width], "little") for k in range(0, n * width, width)]


def _poly_rem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Remainder of f modulo a monic polynomial g over GF(3).

    Coefficient lists are constant term first.
    """
    f = [c % 3 for c in f]
    dg = len(g) - 1
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if c:
            for k in range(dg + 1):
                f[i - dg + k] = (f[i - dg + k] - c * g[k]) % 3
    return f[:dg]


def is_irreducible(coeffs: Sequence[int]) -> bool:
    """Whether a monic polynomial over GF(3) is irreducible.

    Trial division by every monic polynomial of degree 1..deg//2; fine for
    the degrees this package supports (deg <= 8).
    """
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] % 3 != 1:
        return False
    for d in range(1, deg // 2 + 1):
        for m in range(3**d):
            g = _digits(m, d) + [1]
            if not any(_poly_rem(coeffs, g)):
                return False
    return True


def default_modulus(r: int) -> tuple[int, ...]:
    """Smallest-encoding monic irreducible of degree r over GF(3)."""
    for m in range(3**r):
        coeffs = tuple(_digits(m, r)) + (1,)
        if is_irreducible(coeffs):
            return coeffs
    raise FieldConfigError(f"no irreducible polynomial of degree {r} found")


class _SplitRow:
    """Row x of the addition table: self[y] = T[x_h][y_h] 3^k + T[x_l][y_l]."""

    __slots__ = ("_split", "_high", "_low")

    def __init__(self, split: int, table: list[list[int]], x: int):
        xh, xl = divmod(x, split)
        self._split, self._high, self._low = split, table[xh], table[xl]

    def __getitem__(self, y: int) -> int:
        yh, yl = divmod(y, self._split)
        return self._high[yh] * self._split + self._low[yl]


class _SplitRows:
    """The addition table's rows above q = 729, where no q x q table is
    built: self[x][y] is x + y, summed through the split table T."""

    __slots__ = ("_split", "_table")

    def __init__(self, split: int, table: list[list[int]]):
        self._split, self._table = split, table

    def __getitem__(self, x: int) -> _SplitRow:
        return _SplitRow(self._split, self._table, x)


class Field:
    """GF(3^r) in a polynomial basis.

    Parameters
    ----------
    r : int
        Extension degree, 1 <= r <= 8.
    modulus : sequence of int, optional
        Monic irreducible polynomial of degree r over GF(3), coefficients
        constant term first, each in {0, 1, 2}.  Defaults to the
        smallest-encoding monic irreducible of degree r.
    """

    def __init__(self, r: int, modulus: Iterable[int] | None = None):
        if not isinstance(r, int) or not 1 <= r <= _MAX_R:
            raise FieldConfigError(f"extension degree must be an int in 1..{_MAX_R}, got {r!r}")
        self.r = r
        self.q = 3**r
        if modulus is None:
            mod = default_modulus(r)
        else:
            mod = tuple(int(c) for c in modulus)
            if len(mod) != r + 1:
                raise FieldConfigError(
                    f"modulus {list(mod)} has degree {len(mod) - 1}, expected {r}"
                )
            if any(c not in (0, 1, 2) for c in mod):
                raise FieldConfigError(f"modulus {list(mod)} has coefficients outside GF(3)")
            if mod[-1] != 1:
                raise FieldConfigError(f"modulus {list(mod)} is not monic")
            if not is_irreducible(mod):
                raise FieldConfigError(f"modulus {list(mod)} is reducible over GF(3)")
        self.modulus = mod
        self._build_tables()

    # -- construction ------------------------------------------------

    def _mul_raw(self, x: int, y: int) -> int:
        """Product by polynomial convolution and reduction; used only to bootstrap."""
        a = _digits(x, self.r)
        b = _digits(y, self.r)
        prod = [0] * (2 * self.r - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        mod = self.modulus
        for i in range(2 * self.r - 2, self.r - 1, -1):
            c = prod[i] % 3
            if c:
                for k in range(self.r):
                    prod[i - self.r + k] -= c * mod[k]
        enc = 0
        for i in range(self.r - 1, -1, -1):
            enc = enc * 3 + prod[i] % 3
        return enc

    def _pow_raw(self, x: int, e: int) -> int:
        """x^e, e >= 1, by square-and-multiply over _mul_raw; used only to bootstrap."""
        out = None
        while e:
            if e & 1:
                out = x if out is None else self._mul_raw(out, x)
            e >>= 1
            if e:
                x = self._mul_raw(x, x)
        return out

    def _build_tables(self) -> None:
        q, r = self.q, self.r
        # c * 3^k + x (x < 3^k) has digit c at position k: its negation and
        # addition-table row follow from those of x.  The table over the low
        # half of the digits, k < ceil(r/2), is the split adder's; the full
        # table goes on to every digit for q <= 729.
        half = (r + 1) // 2
        neg, table = [0], [[0]]
        for k in range(r):
            p = 3**k
            neg += [(3 - c) * p + v for c in (1, 2) for v in neg]
            if k < half or q <= _ADD_TABLE_MAX_Q:
                # row c * 3^k + x is row x shifted by (c + d) * 3^k over the blocks d
                blocks = [[list(map((d * p).__add__, row)) for d in range(3)] for row in table]
                table = [b[c] + b[(c + 1) % 3] + b[(c + 2) % 3] for c in range(3) for b in blocks]
            if k + 1 == half:
                self._split, self._split_table = 3 * p, table
        self._neg = neg
        self._add_table = table if q <= _ADD_TABLE_MAX_Q else None
        self._rows = table if q <= _ADD_TABLE_MAX_Q else _SplitRows(self._split, self._split_table)

        # The first candidate of order q - 1 is the generator: g^((q-1)/p) != 1 for
        # every prime p | q - 1.  Its walk is exp.
        cofactors = [(q - 1) // p for p in _prime_factors(q - 1)]
        for gen in range(2, q):
            if all(self._pow_raw(gen, e) != 1 for e in cofactors):
                break
        else:
            raise FieldConfigError(f"no primitive element found for modulus {list(self.modulus)}")
        # x -> x * gen is F_3-linear, so it is the sum of its values on the low
        # and the high digits of x, each tabulated by raw products.
        split, add = self._split, self.add
        low = [self._mul_raw(x, gen) for x in range(split)]
        high = [self._mul_raw(x * split, gen) for x in range(q // split)]
        exp, x = [1], gen
        while x != 1 and len(exp) < q:
            exp.append(x)
            x = add(high[x // split], low[x % split])
        if len(exp) != q - 1:
            raise FieldConfigError(f"modulus {list(self.modulus)} does not define a field")
        self.generator = gen
        self._exp = exp
        self._log = [2 * (q - 1)] * q  # zero's log: past every sum of two unit logs
        for i, x in enumerate(exp):
            self._log[x] = i
        self._exp2 = exp + exp + [0] * (2 * q - 1)

        # The trace is F_3-linear: fixed digit by digit by the trace t_k of t^k.
        trace = [0]
        for k in range(r):
            p = 3**k
            t_k = 0
            for j in range(r):
                t_k = self._add_slow(t_k, self.pow(p, 3**j))
            if t_k >= 3:
                raise VerificationError(f"trace of {p} landed outside the prime field")
            trace += [(v + c * t_k) % 3 for c in (1, 2) for v in trace]
        self._trace = trace

    # -- arithmetic --------------------------------------------------

    def _add_slow(self, x: int, y: int) -> int:
        """Digit-by-digit sum; the oracle for both addition tables."""
        out, shift = 0, 1
        while x or y:
            out += ((x % 3) + (y % 3)) % 3 * shift
            x //= 3
            y //= 3
            shift *= 3
        return out

    def add(self, x: int, y: int) -> int:
        if self._add_table is not None:
            return self._add_table[x][y]
        split, table = self._split, self._split_table
        xh, xl = divmod(x, split)
        yh, yl = divmod(y, split)
        return table[xh][yh] * split + table[xl][yl]

    def neg(self, x: int) -> int:
        return self._neg[x]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        return self._exp2[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.q})")
        return self._exp2[self.q - 1 - self._log[x]]

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e < 0:
                raise ZeroDivisionError(f"negative power of zero in GF({self.q})")
            return 1 if e == 0 else 0
        return self._exp[(self._log[x] * e) % (self.q - 1)]

    def trace(self, x: int) -> int:
        """Absolute trace GF(3^r) -> GF(3), returned as an int in {0, 1, 2}."""
        return self._trace[x]

    def is_square(self, x: int) -> bool:
        """Whether a unit x is a square: x = g^k is one iff k is even."""
        if x == 0:
            raise ValueError("square class of 0 is undefined; pass a unit")
        return self._log[x] % 2 == 0

    # -- views -------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- identity ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and (self.r, self.modulus) == (other.r, other.modulus)

    def __hash__(self) -> int:
        return hash((self.r, self.modulus))

    def __repr__(self) -> str:
        return f"Field(r={self.r}, q={self.q}, modulus={list(self.modulus)})"
