"""Ternary linear codes attached to the group enumerations.

For a group G = {g_1, ..., g_N} over GF(3^r) (in the canonical order of
groups.enumerate_group), the associated code C(G) <= GF(3)^N is the dual
of the q-row map a -> c(a) = (tr(a Tr g_1), ..., tr(a Tr g_N)): the dual
code C(G)^perp consists of exactly these q words, and C(G) itself has
dimension N - r.

Weight distributions of C(G) are computed by two genuinely independent
routes and must agree coefficient by coefficient:

  * a combinatorial dynamic program over the trace multiplicities n(beta):
    a codeword of weight j picks nu_beta coordinates set to 1 and mu_beta
    set to 2 among the n(beta) positions with trace beta, subject to
    sum (nu_beta - mu_beta) beta == 0; the DP tracks (weight, that partial
    sum).  Since the additive group has exponent 3, only (nu - mu) mod 3
    moves the sum, and the per-beta transition rows for the three residues
    have closed forms, the two nonzero residues sharing one row.  The DP
    is folded by +-: flipping 1 <-> 2 merges the classes beta and -beta,
    the state keeps one column per pair {s, -s} since it stays symmetric,
    and each class computes only the columns a later class reads: the
    classes 3^(r-1), ..., 3, 1 and then 0 come last, and class 3^k computes
    the pairs below 3^k, class 0 column 0 alone.  Each column
    is one int with its weights in fixed-width byte slots (Kronecker
    substitution), so a pull is two exact int products; an entry of weight
    j over m positions counts some of the C(m, j) 2^j words of weight j,
    and the slots are sized by that bound, so none carries;

  * the MacWilliams transform of the q-word dual spectrum.  If c_s entries
    of c(a) equal s, the group's exponential sum is G(a) = c_0 + c_1 zeta +
    c_2 zeta^2, so the dual weight is w(a) = c_1 + c_2 = (2N - 2Re G(a))/3;
    the transform runs the ternary Krawtchouk three-term recurrence once
    per distinct dual weight.  Every division must be exact.

dual_codeword materializes the words c(a) themselves and is the oracle
for the dual weights.

All counts are exact Python integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .eisenstein import CycInt
from .errors import UnsupportedScaleError, VerificationError
from .field import Field, _pack, _unpack
from .groups import (_check_gid, enumerate_group, gauss_sum_closed, gauss_sum_enumerated,
                     group_order, mat_trace, trace_spectrum_closed)

_FULL_SPECTRUM_MAX_N = 2000


def code_length(q: int, tag: str) -> int:
    return group_order(q, tag)


def _full_length(q: int, tag: str) -> int:
    """N, refused above the bound shared by both full-table methods."""
    n_total = code_length(q, tag)
    if n_total > _FULL_SPECTRUM_MAX_N:
        raise UnsupportedScaleError(
            f"full distribution bounded at N <= {_FULL_SPECTRUM_MAX_N} "
            f"(asked for N = {n_total}); truncate the dp method instead"
        )
    return n_total


def dual_codeword(field: Field, tag: str, a: int) -> tuple[int, ...]:
    """The word c(a) = (tr(a Tr g_1), ..., tr(a Tr g_N)) over GF(3)."""
    tag = _check_gid(tag)
    if not 0 <= a < field.q:
        raise ValueError(f"a must be an element of GF({field.q}), got {a}")
    mul, tr = field.mul, field.trace
    return tuple(tr(mul(a, mat_trace(field, g))) for g in enumerate_group(field, tag))


def _weight(field: Field, tag: str, a: int, g: CycInt) -> int:
    """w(a) = (2N - 2Re G(a))/3 from the group's exponential sum G(a)."""
    w, rem = divmod(2 * code_length(field.q, tag) - g.two_re(), 3)
    if rem:
        raise VerificationError(
            f"dual weight of {tag} at q={field.q}, a={a} is not an integer: G(a) = {g!r}")
    return w


@lru_cache(maxsize=None)
def dual_weights(field: Field, tag: str) -> tuple[int, ...]:
    """Hamming weight of c(a) for every a, from G(a) over the enumerated trace
    spectrum (groups.gauss_sum_enumerated); G(0) = N gives w(0) = 0."""
    tag = _check_gid(tag)
    return tuple(_weight(field, tag, a, gauss_sum_enumerated(field, tag, a))
                 for a in field.elements())


def dual_weight_formula(field: Field, tag: str, a: int) -> int:
    """Closed form for the weight of c(a), a != 0, for the orthogonal codes,
    from G(a) = groups.gauss_sum_closed: with i = 1 for SO(3,q), 2 for O(3,q),

        w(c(a)) = (q i / 3) * (2 (q^2 - 1) - 2Re(lambda(a)) K(a^2))
    """
    tag = _check_gid(tag)
    if tag == "sp2":
        raise ValueError("closed-form dual weight is defined for the so3 and o3 codes")
    return _weight(field, tag, a, gauss_sum_closed(field, tag, a))


def dual_spectrum(field: Field, tag: str) -> dict[int, int]:
    """Weight -> count over the q words of the dual code."""
    spec: dict[int, int] = {}
    for w in dual_weights(field, tag):
        spec[w] = spec.get(w, 0) + 1
    return dict(sorted(spec.items()))


# ---------------------------------------------------------------------------
# Stirling numbers and the Pless sum


def stirling2(h: int, t: int) -> int:
    """Stirling number of the second kind via the explicit alternating sum
    S(h, t) = (1/t!) sum_j (-1)^(t-j) C(t, j) j^h; zero for t > h."""
    if h < 0 or t < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    if t > h:
        return 0
    acc = 0
    for j in range(t + 1):
        acc += (-1) ** (t - j) * comb(t, j) * j**h
    ft = factorial(t)
    if acc % ft:
        raise VerificationError(f"stirling2({h}, {t}) sum not divisible by {t}!")
    return acc // ft


def pless_sum(n: int, h: int, counts) -> Fraction:
    """The Pless power-moment sum behind every identity in this package:

        sum_{j=0}^{min(n,h)} (-1)^j counts[j]
            sum_{t=j}^{h} t! S(h,t) 2^(t-j) 3^(-t) C(n-j, n-t),

    where the terms with t > n vanish.  For a ternary code of length n and
    dimension k whose dual has weight counts A_j, 3^k pless_sum(n, h, A)
    == sum_j j^h C_j (MacWilliams & Sloane, ch. 5).  Counts past index
    min(n, h) are not read; missing ones are zero.
    """
    top = min(n, h)
    weights = [factorial(t) * stirling2(h, t) for t in range(top + 1)]
    acc = 0
    for j, c in enumerate(counts[: top + 1]):
        inner = sum(weights[t] * 3 ** (h - t) * 2 ** (t - j) * comb(n - j, n - t)
                    for t in range(j, top + 1))
        acc += (-1) ** j * c * inner
    return Fraction(acc, 3**h)


# ---------------------------------------------------------------------------
# weight distributions


@dataclass(frozen=True)
class WeightDistribution:
    code: str
    counts: tuple[int, ...]
    truncated_at: int | None = None

    def rows(self, q: int) -> list[dict]:
        return [{"code": self.code, "q": q, "j": j, "count": str(c)}
                for j, c in enumerate(self.counts)]


def _site_rows(n: int, cap: int) -> tuple[list[int], list[int]]:
    """Rows R_0 and R_1 = R_2 of a class of n positions: R_k[d] sums the
    multinomials C(n; nu, mu) over nu + mu = d <= cap with nu - mu == k mod 3.
    Filtering (1 + yz + y/z)^n by the cube roots of unity z gives the closed
    forms below; 2^d == (-1)^d mod 3 makes both divisions exact.
    """
    ds = range(min(n, cap) + 1)
    return ([comb(n, d) * (2**d + 2 * (-1) ** d) // 3 for d in ds],
            [comb(n, d) * (2**d - (-1) ** d) // 3 for d in ds])


def _slot_bytes(m: int, width: int) -> int:
    """Bytes per slot of a column over m >= width positions up to weight
    width: its entry of weight j counts some of the C(m, j) 2^j words of
    weight j.  The ratio of consecutive bounds is 2(m - j)/(j + 1), so they
    rise up to j = (2m + 2) // 3 and the largest one up to width is at
    the smaller of the two."""
    j = min(width, (2 * m + 2) // 3)
    return ((comb(m, j) << j).bit_length() + 7) // 8


def weight_distribution_dp(field: Field, tag: str,
                           truncate_at: int | None = None) -> WeightDistribution:
    """Weight distribution by the combinatorial dynamic program.

    state[s][w] counts partial words of weight w whose sum of (nu - mu) beta
    so far is s; class beta pulls each column as
    new[s] = state[s] R_0 + (state[s - beta] + state[s + beta]) R_1.

    Two exact symmetries cut the work about fourfold.  Flipping 1 <-> 2 at a
    position keeps its weight and negates its term, so the positions of
    class -beta count as more positions of class beta: beta = 0 stays alone
    and each pair {beta, -beta} is one class of n(beta) + n(-beta)
    positions.  The pull maps a state with state[s] == state[-s] to another
    one, and the start state[0] = 1 is such a state, so one column is kept
    per pair {s, -s}.

    Each class computes only the columns a later class reads.  The classes
    run in the order: every beta other than 0 and the powers of 3,
    ascending; then 3^(r-1), ..., 9, 3, 1; then 0.  The encodings s < 3^k
    are the GF(3)-span of 1, t, ..., t^(k-1), since the base-3 digits are
    the polynomial-basis coordinates and addition is digit-wise mod 3
    whatever the modulus; so they are closed under +-, and their pairs
    are the first (3^k + 1) // 2 of reps.  Class 3^(k-1) writes columns
    s < 3^(k-1) and reads s and s +- 3^(k-1), all below 3^k, so class 3^k
    computes the pairs below 3^k.  Class 0 reads column s only to write
    column s, and it computes column 0 alone, the one returned.  Every
    other class computes all columns.  Class 0, the smallest class, goes
    last so that every earlier width leaves out its n(0) positions.

    Each column is one int with its weights in fixed-width byte slots
    (field._pack), so a pull is two int products, a sum and a mask that
    drops the weights above the cap.  No slot carries into the next: over
    the m positions pulled so far, an entry of weight j counts some of the
    C(m, j) 2^j words of weight j, every term of a pull is nonnegative,
    and for beta != 0 the columns s - beta and s + beta count disjoint
    words.  The slots are as wide as the largest such bound up to the
    current width, and the columns are repacked when that grows a byte.
    Class 0 folds R_1 into its one row, since s - 0 == s + 0.

    Untruncated runs are bounded to N <= 2000; pass truncate_at=J for the
    exact counts C_0..C_J at any supported q.
    """
    tag = _check_gid(tag)
    if truncate_at is None:
        cap = _full_length(field.q, tag)
    else:
        if truncate_at < 0:
            raise ValueError(f"truncate_at must be nonnegative, got {truncate_at}")
        cap = min(truncate_at, code_length(field.q, tag))

    add, neg = field.add, field.neg
    counts_beta = trace_spectrum_closed(field, tag)
    # reps[i] is the smaller of a pair {s, -s}; column i of the state holds both
    reps = [s for s in field.elements() if s <= neg(s)]
    col_of = [0] * field.q
    for i, s in enumerate(reps):
        col_of[s] = col_of[neg(s)] = i
    # (beta, number of columns it computes) in class order; see the docstring
    powers = [3**k for k in reversed(range(field.r))]
    plan = ([(beta, len(reps)) for beta in reps[1:] if beta not in powers]
            + [(beta, (beta + 1) // 2) for beta in powers] + [(0, 1)])
    state = [0] * len(reps)
    state[0] = 1
    m = width = 0
    nbytes = 1
    for beta, ncols in plan:
        minus = neg(beta)
        n = counts_beta[beta] + counts_beta[minus] if beta else counts_beta[0]
        stay, move = _site_rows(n, cap)
        if not beta:
            stay, move = [x + 2 * y for x, y in zip(stay, move)], [0]
        seen = width + 1
        m, width = m + n, min(cap, width + len(stay) - 1)
        grown = _slot_bytes(m, width)
        if grown > nbytes:
            state = [_pack(_unpack(col, seen, nbytes), grown) for col in state]
            nbytes = grown
        stay, move = _pack(stay, nbytes), _pack(move, nbytes)
        mask = (1 << (8 * nbytes * (width + 1))) - 1
        state = [(state[i] * stay
                  + (state[col_of[add(s, minus)]] + state[col_of[add(s, beta)]]) * move) & mask
                 for i, s in enumerate(reps[:ncols])]
    return WeightDistribution(code=tag, counts=tuple(_unpack(state[0], width + 1, nbytes)),
                              truncated_at=truncate_at)


def _krawtchouk_row(n: int, x: int) -> list[int]:
    """K_0(x)..K_n(x), the coefficients of (1 + 2y)^(n - x) (1 - y)^x, by the
    ternary three-term recurrence

        (k+1) K_{k+1}(x) = (k + 2(n-k) - 3x) K_k(x) - 2(n-k+1) K_{k-1}(x)

    (MacWilliams & Sloane, ch. 5); each division by k+1 must be exact.
    """
    row = [1]
    prev, cur = 0, 1
    for k in range(n):
        nxt, rem = divmod((k + 2 * (n - k) - 3 * x) * cur - 2 * (n - k + 1) * prev, k + 1)
        if rem:
            raise VerificationError(f"Krawtchouk recurrence inexact at n={n}, x={x}, k={k + 1}")
        row.append(nxt)
        prev, cur = cur, nxt
    return row


def weight_distribution_macwilliams(field: Field, tag: str) -> WeightDistribution:
    """Weight distribution via the MacWilliams transform of the dual spectrum:

        W_C(y) = (1/q) sum_a (1 + 2y)^(N - w(a)) (1 - y)^(w(a)),

    that is C_j = (1/q) sum_x A_x K_j(x) over the dual weight counts A_x.
    The division by q must come out exact; anything else is an error.
    """
    tag = _check_gid(tag)
    n_total = _full_length(field.q, tag)
    total = [0] * (n_total + 1)
    for x, a_x in dual_spectrum(field, tag).items():
        total = [t + a_x * k for t, k in zip(total, _krawtchouk_row(n_total, x))]
    q = field.q
    counts = []
    for j, v in enumerate(total):
        if v % q:
            raise VerificationError(
                f"MacWilliams sum for {tag} at q={q} not divisible by q at degree {j}"
            )
        counts.append(v // q)
    return WeightDistribution(code=tag, counts=tuple(counts), truncated_at=None)


# ---------------------------------------------------------------------------
# the Pless power-moment identity


@dataclass(frozen=True)
class PlessReport:
    code: str
    q: int
    h: int
    lhs: int
    rhs: int
    equal: bool


def pless_check(field: Field, tag: str, h: int,
                counts: tuple[int, ...] | None = None) -> PlessReport:
    """Check the h-th Pless power moment for C(G) against its dual spectrum:

        sum_j j^h C_j == 3^(N-r) pless_sum(N, h, A)

    with N - r = dim C and A_j the dual weight counts; the right side must
    be an integer.  The left side uses a full weight distribution (computed
    here via MacWilliams when not supplied).
    """
    tag = _check_gid(tag)
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h}")
    n_total = code_length(field.q, tag)
    if counts is None:
        counts = weight_distribution_macwilliams(field, tag).counts
    lhs = sum(j**h * c for j, c in enumerate(counts))
    dual = dual_spectrum(field, tag)
    rhs = 3 ** (n_total - field.r) * pless_sum(
        n_total, h, [dual.get(j, 0) for j in range(min(n_total, h) + 1)])
    if rhs.denominator != 1:
        raise VerificationError(f"Pless right side for {tag} at q={field.q}, h={h} "
                                f"is not an integer: {rhs}")
    return PlessReport(code=tag, q=field.q, h=h, lhs=lhs, rhs=rhs.numerator,
                       equal=lhs == rhs)
