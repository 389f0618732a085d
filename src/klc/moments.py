"""Recursions tying code weight distributions to Kloosterman power moments.

Each checker evaluates both sides of one identity in exact rational
arithmetic (fractions.Fraction over Python ints) and reports them side by
side.  The moment values on the left come from charsums.moment_table over
the K table, which is one cyclic convolution of the trace sequence; the
right sides come from the weight counts of the combinatorial dynamic
program in codes alone, and never read a moment.  Neither side knows about
the other, so an equal report is a real confirmation, not a tautology.

Identity catalogue (T = T12SK, the moments of K(a^2) over trace-nonzero a;
C1/C2/Csp are the weight counts of the SO(3,q), O(3,q), Sp(2,q) codes;
N1/N2 their lengths).  Every right side is the Pless power-moment sum
P(N, h, c) = codes.pless_sum, scaled:

  theorem-a1   ((-1)^(h+1) + 2^-h) T^h ==
               L(h) + (3/2)^h q^(1-h) P(N1, h, C1 - Csp),
               L(h) = - sum_{j=1}^{h-1} C(h,j) (q^2-1)^(h-j) R(j), R(j) the
               right side of row j, where the paper reads its left side; the
               two agree while every row holds, and a row that fails at h0
               carries its error on to every later row.

  theorem-a2   same left side, with the O(3,q) code on the right:
               L(h) + (3/2)^h q^(1-h) (2^-h P(N2, h, C2) - P(N1, h, Csp))

  theorem-l    2 (2q/3)^h sum_{j=0}^{h} (-1)^j C(h,j) (q^2-1)^(h-j) SK^j ==
               q P(N1, h, Csp)

  corollary-n  closed forms for the first moments:
               SK = ((-1)^r q + 1)/2, T0SK = (-1)^r q/3 + 1, T12SK = 2 (-1)^r q/3

The printed source of theorem-a2 carries an exponent base "s" that is
never defined; every numeric check here confirms the reading s = 2, and
reports for that identity carry a note saying so.

A report keeps the sequences behind its verdict (the weight counts, or
corollary-n's closed values), and its inputs_digest, a SHA-256 prefix of
them, is computed when it is read.  Only a printed row reads it, so a
caller that reads only the verdicts, such as `verify all`, never hashes
and never loads hashlib.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .charsums import moment_table
from .codes import code_length, pless_sum, weight_distribution_dp
from .errors import UnsupportedScaleError
from .field import Field

_A2_NOTE = "exponent base s read as 2"

_MAX_HMAX = 16


class RecursionReport(NamedTuple):
    """One side-by-side report.  inputs holds the sequences the verdict
    read; inputs_digest is their digest, computed when it is read."""

    theorem: str
    q: int
    h: int
    lhs: Fraction
    rhs: Fraction
    equal: bool
    inputs: tuple
    family: str | None = None
    note: str | None = None

    @property
    def inputs_digest(self) -> str:
        return _digest(*self.inputs)

    def row(self) -> dict:
        out = {
            "theorem": self.theorem,
            "q": self.q,
            "h": self.h,
            "lhs": f"{self.lhs.numerator}/{self.lhs.denominator}",
            "rhs": f"{self.rhs.numerator}/{self.rhs.denominator}",
            "equal": self.equal,
            "inputs_digest": self.inputs_digest,
        }
        if self.family is not None:
            out["family"] = self.family
        if self.note is not None:
            out["note"] = self.note
        return out


# One spectrum per (field, code): recomputed only when a longer prefix is
# needed, so every identity in a run sees the identical sequence.
_SPECTRA: dict[tuple[Field, str], list[int]] = {}


def truncated_counts(field: Field, tag: str, j_max: int) -> list[int]:
    """Exact weight counts C_0..C_jmax for the tagged code, shared per field."""
    n_total = code_length(field.q, tag)
    j_max = min(j_max, n_total)
    key = (field, tag)
    cached = _SPECTRA.get(key)
    if cached is None or len(cached) <= j_max:
        cached = list(weight_distribution_dp(field, tag, truncate_at=j_max).counts)
        _SPECTRA[key] = cached
    return cached[: j_max + 1]


def _digest(*seqs) -> str:
    import hashlib  # only printed rows digest; start-up and verify all skip it

    blob = json.dumps([[str(v) for v in s] for s in seqs]).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _check_hmax(hmax: int) -> None:
    if not 1 <= hmax <= _MAX_HMAX:
        raise UnsupportedScaleError(f"hmax must be in 1..{_MAX_HMAX}, got {hmax}")


def _lhs_coeff(h: int) -> Fraction:
    return Fraction((-1) ** (h + 1)) + Fraction(1, 2**h)


def _check(theorem: str, field: Field, hmax: int, family: str, tags: tuple[str, ...],
           lhs, rhs, note: str | None = None) -> list[RecursionReport]:
    """Report lhs(field, h, m) against rhs(field, h, earlier, *counts) for
    h = 1..hmax, where m maps h to the family's moment, earlier lists the
    right sides of rows 1..h-1 and counts are the tagged codes' weight
    counts C_0..C_hmax; the right side never sees a moment."""
    _check_hmax(hmax)
    mt = moment_table(field, hmax)
    counts = tuple(truncated_counts(field, tag, hmax) for tag in tags)
    m = {h: mt.value(family, h) for h in range(hmax + 1)}
    out, earlier = [], []
    for h in range(1, hmax + 1):
        left, right = lhs(field, h, m), rhs(field, h, earlier, *counts)
        earlier.append(right)
        out.append(RecursionReport(theorem, field.q, h, left, right, left == right,
                                   counts, note=note))
    return out


def _a_lhs(field: Field, h: int, t12) -> Fraction:
    return _lhs_coeff(h) * t12[h]


def _a_rhs(q: int, h: int, earlier: list[Fraction], pless: Fraction) -> Fraction:
    """L(h) + (3/2)^h q^(1-h) pless, the right-side shape theorem-a1 and
    theorem-a2 share, with L(h) from the right sides of rows 1..h-1."""
    acc = Fraction(3**h, 2**h * q ** (h - 1)) * pless
    for j, right in enumerate(earlier, 1):
        acc -= comb(h, j) * (q * q - 1) ** (h - j) * right
    return acc


def _a1_rhs(field: Field, h: int, earlier, c1, csp) -> Fraction:
    q = field.q
    diff = [a - b for a, b in zip(c1, csp)]
    return _a_rhs(q, h, earlier, pless_sum(code_length(q, "so3"), h, diff))


def _a2_rhs(field: Field, h: int, earlier, c2, csp) -> Fraction:
    q = field.q
    return _a_rhs(q, h, earlier, pless_sum(code_length(q, "o3"), h, c2) / 2**h
                  - pless_sum(code_length(q, "so3"), h, csp))


def theorem_a1(field: Field, hmax: int) -> list[RecursionReport]:
    """Check the SO(3,q)-code moment recursion for h = 1..hmax."""
    return _check("theorem-a1", field, hmax, "T12SK", ("so3", "sp2"), _a_lhs, _a1_rhs)


def theorem_a2(field: Field, hmax: int) -> list[RecursionReport]:
    """Check the O(3,q)-code moment recursion for h = 1..hmax."""
    return _check("theorem-a2", field, hmax, "T12SK", ("o3", "sp2"), _a_lhs, _a2_rhs,
                  note=_A2_NOTE)


def _l_lhs(field: Field, h: int, sk) -> Fraction:
    q = field.q
    acc = Fraction(0)
    for j in range(h + 1):
        acc += (-1) ** j * comb(h, j) * (q * q - 1) ** (h - j) * sk[j]
    return 2 * (2 * q // 3) ** h * acc


def _l_rhs(field: Field, h: int, earlier, csp) -> Fraction:
    """Right side of theorem-l; it reads only the code, not the earlier rows."""
    return field.q * pless_sum(code_length(field.q, "so3"), h, csp)


def theorem_l(field: Field, hmax: int) -> list[RecursionReport]:
    """Check the Sp(2,q)-code moment identity for the square moments SK^h."""
    return _check("theorem-l", field, hmax, "SK", ("sp2",), _l_lhs, _l_rhs)


def corollary_n(field: Field) -> list[RecursionReport]:
    """Check the closed forms of the first moments against brute force."""
    mt = moment_table(field, 1)
    q, r = field.q, field.r
    sign = (-1) ** r
    closed = {
        "SK": Fraction(sign * q + 1, 2),
        "T0SK": Fraction(sign * q, 3) + 1,
        "T12SK": Fraction(2 * sign * q, 3),
    }
    inputs = ([closed[f] for f in sorted(closed)],)
    out = []
    for family in ("SK", "T0SK", "T12SK"):
        lhs = closed[family]
        rhs = Fraction(mt.value(family, 1))
        out.append(RecursionReport("corollary-n", q, 1, lhs, rhs,
                                   lhs == rhs, inputs, family=family))
    return out
