"""Kloosterman sums and their power moments over GF(3^r), exactly.

The basic object is K(a) = sum over units alpha of lambda(alpha + a/alpha),
with lambda the canonical additive character into Z[zeta].  Every sum here
is counted by the residue of its trace, term by term in
eisenstein.char_sum or, for the K table, by convolution, and only
converted to an ordinary integer once its imaginary part is shown to
vanish; realness is a theorem, and we treat any violation as a bug.

Moment families (h-th power moments of K over various index sets):

    MK    over all units a
    SK    over nonzero squares a
    T0SK  K(a^2) over units a with trace(a) == 0
    T12SK K(a^2) over units a with trace(a) != 0

The table of every K(a) is read off one cyclic convolution of the trace
sequence of a generator (kloosterman_all), and delta(m, .) is the m-fold
additive convolution of delta(1, .), one fold per m on top of the cached
delta(m - 1, .) (delta_table).  The direct
enumerations stay as oracles: kloosterman_all_brute sums each K(a) over
the units, and delta_table_brute enumerates every m-tuple of units.
Each moment is a power sum over the histogram of the K values on its
index set; none of the recursion identities verified elsewhere in this
package are used here, so these tables can serve as an independent
oracle for them.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .eisenstein import char_sum
from .errors import UnsupportedScaleError, VerificationError
from .field import Field, _pack, _unpack

FAMILIES = ("MK", "SK", "T0SK", "T12SK")

_DELTA_MAX_M = 4
_SALIE_MAX_H = 4


@lru_cache(maxsize=None)
def kloosterman_all(field: Field):
    """K(a) for every unit a, as a tuple indexed by a (index 0 holds None).

    With a = g^l and alpha = g^i, the trace is additive, so
    tr(alpha + a/alpha) = t_i + t_(l-i) for t_i = tr(g^i).  Hence
    K(g^l) = N_0(l) + N_1(l) zeta + N_2(l) zeta^2 with
    N_s(l) = #{i : t_i + t_(l-i) == s mod 3}, and each N_s is a sum of
    cyclic convolutions over Z/(q-1) of the indicator sequences
    [t_i == u].  These are exact Kronecker-substituted int products, one
    per pair u <= v, with slots wider than any count (every count is at
    most q - 1).  K is real exactly when N_1 == N_2, and then
    K = N_0 - N_1; a violation, or a K(a)^2 above the Weil bound 4q,
    raises VerificationError.  kloosterman_all_brute is the oracle.
    """
    q, n = field.q, field.q - 1
    walk = field._exp  # walk[l] = g^l
    trace = [field.trace(x) for x in walk]
    width = n.bit_length() // 8 + 1
    ind = [_pack([t == u for t in trace], width) for u in range(3)]
    low = (1 << (8 * width * n)) - 1

    def conv(u: int, v: int) -> int:
        prod = ind[u] * ind[v]  # linear product; fold it onto Z/(q-1)
        return (prod & low) + (prod >> (8 * width * n))

    # ordered pairs (u, v) with u + v == s mod 3; (u, v) and (v, u) agree
    n0 = _unpack(conv(0, 0) + 2 * conv(1, 2), n, width)
    n1 = _unpack(conv(2, 2) + 2 * conv(0, 1), n, width)
    n2 = _unpack(conv(1, 1) + 2 * conv(0, 2), n, width)
    vals: list = [None] * q
    for l, a in enumerate(walk):
        if n1[l] != n2[l]:
            raise VerificationError(
                f"K({a}) over GF({q}) is not real: counts {n0[l]}, {n1[l]}, {n2[l]}")
        k = n0[l] - n1[l]
        if k * k > 4 * q:
            raise VerificationError(f"Weil bound violated: K({a}) = {k} over GF({q})")
        vals[a] = k
    return tuple(vals)


def kloosterman_all_brute(field: Field):
    """Oracle for kloosterman_all: each K(a) summed over the q - 1 units
    by kloosterman_gl_brute at t = 1, (q-1)^2 character evaluations in all."""
    return (None, *(kloosterman_gl_brute(field, 1, a) for a in field.units()))


def kloosterman_gl(field: Field, t: int, a: int) -> int:
    """Kloosterman sum over GL(t, q) via its recursion in t.

    K_GL(0) = 1, K_GL(1) = K(a), and for t >= 2
    K_GL(t) = q^(t-1) K_GL(t-1) K(a) + q^(2t-2) (q^(t-1) - 1) K_GL(t-2).
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    q = field.q
    if not 1 <= a < q:
        raise ValueError(f"a must be a unit of GF({q}), got {a}")
    if t == 0:
        return 1
    prev = 1
    cur = k1 = kloosterman_all(field)[a]
    for s in range(2, t + 1):
        prev, cur = cur, q ** (s - 1) * cur * k1 + q ** (2 * s - 2) * (q ** (s - 1) - 1) * prev
    return cur


def kloosterman_gl_brute(field: Field, t: int, a: int) -> int:
    """Oracle for kloosterman_gl by summing over all of GL(t, q), t <= 2.

    Cost is on the order of q^(t^2), so this is only for small cases.
    """
    if t not in (0, 1, 2):
        raise UnsupportedScaleError(f"brute force over GL({t}, q) is not supported")
    if not 1 <= a < field.q:
        raise ValueError(f"a must be a unit of GF({field.q}), got {a}")
    if t == 0:
        return 1
    add, mul, inv, sub = field.add, field.mul, field.inv, field.sub
    if t == 1:
        return char_sum(field, ((add(w, mul(a, inv(w))), 1) for w in field.units())).to_int()

    def terms():
        for a11, a12, a21, a22 in product(field.elements(), repeat=4):
            det = sub(mul(a11, a22), mul(a12, a21))
            if det == 0:
                continue
            tr = add(a11, a22)
            tr_inv = mul(tr, inv(det))  # trace of the inverse of a 2x2 matrix
            yield add(tr, mul(a, tr_inv)), 1

    return char_sum(field, terms()).to_int()


# ---------------------------------------------------------------------------
# moments


def moment_table(field: Field, hmax: int) -> dict[str, tuple[int, ...]]:
    """All four moment families for h = 0..hmax, as a dict from family to
    the tuple (M^0, ..., M^hmax) of exact ints, keys in FAMILIES order.

    Each family is a power sum over a histogram: c_v units of its index set
    give K == v (K(a) for MK and SK, K(a^2) for T0SK and T12SK), so its h-th
    moment is sum c_v v^h.  K takes at most 4 sqrt(q) + 1 distinct values
    (the Weil bound), so the powers cost O(sqrt(q) hmax) products.
    """
    if hmax < 0:
        raise ValueError(f"hmax must be nonnegative, got {hmax}")
    kv = kloosterman_all(field)
    hists = [Counter() for _ in FAMILIES]
    mk, sk, t0sk, t12sk = hists
    for a in field.units():
        k = kv[a]
        mk[k] += 1
        if field.is_square(a):
            sk[k] += 1
        (t0sk if field.trace(a) == 0 else t12sk)[kv[field.mul(a, a)]] += 1
    # SK over squares equals the same sum over {a^2}: each square is hit twice
    # when a runs over all units, which is the content of 2 SK = T0SK + T12SK.
    out = {}
    for family, hist in zip(FAMILIES, hists):
        sums = [0] * (hmax + 1)
        for v, c in hist.items():
            for h in range(hmax + 1):
                sums[h] += c
                c *= v
        out[family] = tuple(sums)
    return out


# ---------------------------------------------------------------------------
# the tuple-counting function delta


@lru_cache(maxsize=None)
def delta_table(field: Field, m: int) -> tuple[int, ...]:
    """delta(m, beta) for all beta at once.

    delta(m, beta) counts m-tuples of units (alpha_1..alpha_m) with
    sum(alpha_j + 1/alpha_j) == beta.  For m = 0 the empty sum gives
    delta(0, beta) = [beta == 0], and delta(1, .) is counted over the q - 1
    units.  For m >= 2, delta(m, .) is one fold of the cached delta(m - 1, .)
    with delta(1, .) over (GF(q), +), about q^2/2 additions, so the tables
    for m = 0..mmax cost mmax folds in all.  Every caller asks for
    m <= 4, the bound delta_table_brute, the oracle, shares.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m > _DELTA_MAX_M:
        raise UnsupportedScaleError(f"delta table bounded at m <= {_DELTA_MAX_M}, got {m}")
    q = field.q
    if m == 0:
        return tuple(1 if beta == 0 else 0 for beta in range(q))
    acc = [0] * q
    if m == 1:
        add = field.add
        for alpha in field.units():
            acc[add(alpha, field.inv(alpha))] += 1
        return tuple(acc)
    rows = field._rows
    d1 = [(y, cy) for y, cy in enumerate(delta_table(field, 1)) if cy]
    for x, cx in enumerate(delta_table(field, m - 1)):
        if cx:
            row = rows[x]  # row[y] = x + y
            for y, cy in d1:
                acc[row[y]] += cx * cy
    return tuple(acc)


def delta_table_brute(field: Field, m: int) -> tuple[int, ...]:
    """Oracle for delta_table by enumerating all (q-1)^m tuples, m <= 4."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m > _DELTA_MAX_M:
        raise UnsupportedScaleError(f"delta brute force bounded at m <= {_DELTA_MAX_M}, got {m}")
    q = field.q
    if m == 0:
        return tuple(1 if beta == 0 else 0 for beta in range(q))
    add, inv = field.add, field.inv
    svals = [add(alpha, inv(alpha)) for alpha in field.units()]
    counts = [0] * q
    for tup in product(svals, repeat=m):
        acc = 0
        for v in tup:
            acc = add(acc, v)
        counts[acc] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# reported identities


class SalieReport(NamedTuple):
    q: int
    h: int
    lhs: int
    rhs: int
    equal: bool


def _salie_m(field: Field, k: int) -> int:
    """M_k: k-tuples of units with sum(alpha_j) == 1 and sum(1/alpha_j) == 1.

    The last two units (beta, gamma) are counted in closed form.  For
    s = beta + gamma and t = 1/beta + 1/gamma both nonzero, beta*gamma = s/t
    and beta is a root of x^2 - s x + s/t (discriminant s^2 - s/t, as 4 = 1):
    1 + eta(s^2 - s/t) pairs, eta the quadratic character, eta(0) = 0.
    s = t = 0 gives q - 1 pairs (gamma = -beta); s or t = 0 alone gives none.
    That count is summed over the (k-2)-tuples ahead of the pair; no character
    or K value enters, so the check's two sides stay independent.
    """
    if k < 2:
        return k  # M_0 = 0 (the empty sum is 0), M_1 = 1 (alpha = 1)
    q, sub, inv, mul = field.q, field.sub, field.inv, field.mul
    count = 0
    for tup in product(field.units(), repeat=k - 2):
        s = t = 1
        for alpha in tup:
            s, t = sub(s, alpha), sub(t, inv(alpha))
        if s and t:
            d = sub(mul(s, s), mul(s, inv(t)))
            count += 1 if d == 0 else 2 if field.is_square(d) else 0
        elif s == t:
            count += q - 1
    return count


def salie_check(field: Field, hmax: int) -> list[SalieReport]:
    """Compare MK^h with the Salie recurrence value, reporting h = 1..hmax.

    The recurrence MK^h = q^2 M_(h-1) - (q-1)^(h-1) + 2(-1)^(h-1) holds at
    every q (Lidl & Niederreiter, Finite Fields, ch. 5), with M_(h-1) from
    _salie_m's pair count; the CLI exits 1 on an unequal row.
    """
    if not 1 <= hmax <= _SALIE_MAX_H:
        raise UnsupportedScaleError(f"salie check bounded at hmax <= {_SALIE_MAX_H}, got {hmax}")
    mt, q = moment_table(field, hmax), field.q
    out = []
    for h in range(1, hmax + 1):
        lhs = mt["MK"][h]
        rhs = q * q * _salie_m(field, h - 1) - (q - 1) ** (h - 1) + 2 * (-1) ** (h - 1)
        out.append(SalieReport(q=q, h=h, lhs=lhs, rhs=rhs, equal=lhs == rhs))
    return out


class PropEReport(NamedTuple):
    q: int
    m: int
    beta: int
    lhs: int
    rhs: int
    equal: bool


def prop_e_check(field: Field, mmax: int) -> list[PropEReport]:
    """Check sum_a lambda(-a beta) K(a^2)^m == q delta(m, beta) - (q-1)^m
    for every beta and m = 0..mmax.  Both sides are exact integers."""
    if not 0 <= mmax <= _DELTA_MAX_M:
        raise UnsupportedScaleError(f"prop-e check bounded at mmax <= {_DELTA_MAX_M}, got {mmax}")
    kv = kloosterman_all(field)
    mul, neg = field.mul, field.neg
    q = field.q
    out = []
    for m in range(mmax + 1):
        dt = delta_table(field, m)
        kpow = [None] + [kv[mul(a, a)] ** m for a in field.units()]
        for beta in field.elements():
            lhs = char_sum(field, ((neg(mul(a, beta)), kpow[a]) for a in field.units())).to_int()
            rhs = q * dt[beta] - (q - 1) ** m
            out.append(PropEReport(q=q, m=m, beta=beta, lhs=lhs, rhs=rhs, equal=lhs == rhs))
    return out
