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
    sum).  weight_distribution_dp's docstring says how it folds the classes
    by +-, keeps one column per orbit, packs each column into one int and
    pulls the classes ("Orbits", "Slots", "Newton", "Passes");
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

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import itemgetter, mul
from typing import NamedTuple

from .eisenstein import CycInt
from .errors import UnsupportedScaleError, VerificationError
from .field import Field, _pack, _unpack
from .groups import (_check_gid, enumerate_group, gauss_sum_closed, gauss_sum_enumerated,
                     group_order, mat_trace, trace_spectrum_closed)

_FULL_SPECTRUM_MAX_N = 2000

# The weight DP's packed state, columns x (width + 1) slots, is refused past
# this many bytes: 8 MiB, about 2.5 times the largest run timed (so3 at
# q = 27, cap 800: 6 columns of 801 slots of 703 bytes, 3.4 MB).
_DP_STATE_MAX_BYTES = 1 << 23


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


class WeightDistribution(NamedTuple):
    code: str
    counts: tuple[int, ...]

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


def _check_state_bytes(q: int, columns: int, m: int, width: int) -> None:
    """Refuse a DP whose packed state, columns x (width + 1) slots of
    _slot_bytes(m, width) bytes, is past _DP_STATE_MAX_BYTES.  A slot holds
    at least j + 1 bits, j = min(width, (2m + 2) // 3), so that bound is
    tried first, and the binomial is formed only when it passes."""
    slots = columns * (width + 1)
    j = min(width, (2 * m + 2) // 3)
    if (slots * (j // 8 + 1) > _DP_STATE_MAX_BYTES
            or slots * _slot_bytes(m, width) > _DP_STATE_MAX_BYTES):
        raise UnsupportedScaleError(
            f"weight DP state bounded at {_DP_STATE_MAX_BYTES} bytes (asked for {columns} "
            f"columns of {width + 1} weights at q = {q}); truncate lower"
        )


def _dp_plan(field: Field, sizes: list[int]) -> list[tuple[int, list[int], int | None]]:
    """The nonempty groups of the weight DP in pull order, each as (n, its
    classes, the number of columns its last class writes or None for all);
    see weight_distribution_dp, "Orbits"."""
    reps = [s for s in field.elements() if s <= field.neg(s)]
    groups: dict[int, list[int]] = {}
    for beta in reversed(reps[2:]):
        groups.setdefault(sizes[beta], []).append(beta)
    # reps[2] = t is scanned last, so it is the last class of its group
    tail = [(sizes[3], groups.pop(sizes[3]), 2)] if field.r > 1 else []
    plan = [(n, betas, None) for n, betas in groups.items()] + tail
    plan += [(sizes[1], [1], 1), (sizes[0], [0], 1)]
    return [group for group in plan if group[0]]


def _orbit_columns(field: Field, sizes: list[int], alone: list[int]) -> tuple[list[int], list[int]]:
    """The columns of the weight DP's state: the orbits of <-1, phi^d> on
    GF(q), phi(x) = x^3, for the smallest divisor d of r under which sizes
    is invariant and every class in alone is fixed up to sign; d = r gives
    the pairs {s, -s}.  Returns the smallest element of each orbit, in
    increasing order, and the column of each element; see
    weight_distribution_dp, "Orbits"."""
    neg, elements = field.neg, field.elements()
    frob = [field.pow(x, 3) for x in elements]
    step = list(elements)
    for d in range(1, field.r + 1):
        step = [frob[x] for x in step]
        if not field.r % d and all(sizes[step[x]] == sizes[x] for x in elements) \
                and all(step[beta] in (beta, neg(beta)) for beta in alone):
            break
    firsts, col_of = [], [-1] * field.q
    for x in elements:
        if col_of[x] < 0:
            y = x
            while col_of[y] < 0:
                col_of[y] = col_of[neg(y)] = len(firsts)
                y = step[y]
            firsts.append(x)
    return firsts, col_of


def _pull_by_passes(state: list[int], lo: list[int], hi: list[int], n: int,
                    nbytes: int, mask: int) -> list[int]:
    """One class of n positions, pulled whole: column i of the result is
    state[i] R_0 + T R_1 with T = state[lo[i]] + state[hi[i]], that is
    ((S + T) u^n + (2S - T) v^n) / 3 with u = 1 + 2y and v = 1 - y, each
    factor one shift-and-add pass on the packed value; see
    weight_distribution_dp, "Passes"."""
    up, down = 8 * nbytes + 1, 8 * nbytes
    new = []
    for s, a, b in zip(state, lo, hi):
        t = state[a] + state[b]
        x, z = s + t, 2 * s - t
        for _ in range(n):
            x += x << up
            z -= z << down
        col, rem = divmod(x + z, 3)
        if rem:
            raise VerificationError(f"pass pull of a class of {n} positions is not divisible by 3")
        new.append(col & mask)
    return new


def _pull_by_newton(state: list[int], shift: list[tuple[list[int], list[int]]], k: int,
                    products: list[int], nout: int | None, mask: int) -> list[int]:
    """A group of k classes, pulled at once: column i of the result, for the
    first nout columns (all for None), is sum_w T_w[i] products[w] with
    T_0 = state and T_w = e_w(E) state, built by Newton's identities from
    P T_0, ..., P T_(w-1).  Column i of P T reads the columns shift[i][0]
    of T with the multiplicities shift[i][1]; see weight_distribution_dp,
    "Newton"."""
    terms, moved, coeffs = [state], [], []
    alpha, beta = 1, 0
    for w in range(1, len(products)):
        prev = terms[-1]
        moved.append([sum(map(mul, mults, map(prev.__getitem__, cols))) for cols, mults in shift])
        sign = (-1) ** (w - 1)
        coeffs.append((sign * alpha, sign * k * beta))
        alpha, beta = alpha + beta, 2 * alpha
        acc = [0] * len(state)
        for (a, b), pt, t in zip(coeffs, reversed(moved), reversed(terms)):
            acc = [x + a * y + b * z for x, y, z in zip(acc, pt, t)]
        if any(x % w for x in acc):
            raise VerificationError(f"Newton step {w} of a group of {k} classes "
                                    f"is not divisible by {w}")
        terms.append([x // w for x in acc])
    return [sum(t[i] * p for t, p in zip(terms, products)) & mask
            for i in range(len(state))[:nout]]


def weight_distribution_dp(field: Field, tag: str,
                           truncate_at: int | None = None) -> WeightDistribution:
    """Weight distribution by the combinatorial dynamic program.

    state[s][w] counts partial words of weight w whose sum of (nu - mu) beta
    so far is s; class beta pulls each column as
    new[s] = state[s] R_0 + (state[s - beta] + state[s + beta]) R_1,
    that is by R_0 + R_1 E_beta with E_beta state[s] =
    state[s - beta] + state[s + beta].

    Flipping 1 <-> 2 at a position keeps its weight and negates its term,
    so the positions of class -beta count as more positions of class beta:
    beta = 0 stays alone and each pair {beta, -beta} is one class of
    n(beta) + n(-beta) positions.  The pulls commute, and classes of one
    size n share R_0 and R_1: the classes of one size, other than 0 and
    +-1, form a group.  The groups pull in order of their largest class,
    except that the group of t = 3 pulls last, t last within it; then
    class {+-1} and class 0, each a group of its own.

    Orbits.  The Frobenius map phi(x) = x^3 fixes tr, and the groups are
    defined over GF(3), so every real trace spectrum is phi-invariant.  If
    the class sizes are phi^d-invariant, phi^d maps each group onto
    itself, so the group's pull commutes with phi^d and with s -> -s; the
    start state[0] = 1 is invariant under both, hence so is every state
    between groups, and one column is kept per orbit of <-1, phi^d> on
    GF(q), column i for the orbit of its smallest element reps[i].  A
    class pulled alone (see Passes) must itself commute with phi^d, so it
    must be phi^d-fixed up to sign.  d is the smallest divisor of r that
    meets both conditions, checked on the spectrum given (_orbit_columns),
    and d = r gives one column per pair {s, -s}.  The real spectra get
    d = 1 when truncated at J <= 16 from r = 2 on: 6 / 14 / 26 columns at
    r = 3 / 4 / 5 instead of 14 / 41 / 122 pairs.  Column 0 is {0} and
    column 1 is {+-1}.  Each group writes only the columns that later
    groups read: class 0 writes column 0, class {+-1} writes column 0 from
    columns 0 and 1, and the last class before them writes columns 0 and
    1, the state keeping only the columns written.  Class 0, the smallest
    class, goes last so that every earlier width leaves out its n(0)
    positions.

    Newton.  A group of k classes of n positions pulls at once by the
    expansion

        prod_i (R_0 + R_1 E_i) = sum_w R_0^(k-w) R_1^w e_w(E_1, ..., E_k),

    new[s] = sum_w T_w[s] P_w with P_w = R_0^(k-w) R_1^w mod y^(J+1) and
    T_w = e_w(E) state.  R_1 has no constant term, so P_w = 0 for w > J
    and w runs to min(k, J).  Since 2 beta = -beta, E_beta^2 state[s] =
    state[s + beta] + 2 state[s] + state[s - beta], that is
    E_beta^2 = E_beta + 2 (also for E_0 = 2), and so E^j = alpha_j E +
    beta_j with alpha_1 = 1, beta_1 = 0, alpha_(j+1) = alpha_j + beta_j
    and beta_(j+1) = 2 alpha_j.  Every power sum of the group is then
    affine in P = sum_i E_i, the group's summed shift:
    sum_i E_i^j = alpha_j P + k beta_j, and Newton's identities give

        w T_w = sum_(j=1..w) (-1)^(j-1) (alpha_j P T_(w-j) + k beta_j T_(w-j)).

    P commutes with phi^d and -1, so on the orbit columns it is a small
    integer matrix, P[i][i'] counting the signed classes +-beta of the
    group with reps[i] +- beta in orbit i'.  The division by w is exact on
    the packed values, since evaluation at B is a ring homomorphism and
    the right side is the value at B of w times a polynomial with integer
    coefficients; a remainder raises VerificationError.

    Slots.  Each column is one int with its weights in fixed-width byte
    slots (field._pack): the value at y = B = 2^(8 nbytes) of its
    polynomial.  Evaluation at B is a ring homomorphism, so sums and
    products of packed ints are the values of the exact polynomials, and
    a mask to the slots up to the width reads back the coefficients up to
    the width of a polynomial whose coefficients are nonnegative, as all
    of them here are, and below B up to the width.  Every masked value is
    such a polynomial: a new state column, or a product of R_0s and R_1s
    over at most kn positions, counts at each weight i some of the
    C(m, i) 2^i words of weight i over the m positions pulled after the
    group; the slots are as wide as the largest such bound up to the
    width, and the columns are repacked when that grows a byte.  The T_w
    are never masked or unpacked, so their slots need no bound: they may
    carry into the slot above, and sum_w T_w P_w is still the value of
    the exact new column.

    Passes.  A group after the first whose rows are untruncated (n <= cap)
    pulls one class at a time, with u = 1 + 2y and v = 1 - y:

        new[s] = ((S + T) u^n + (2S - T) v^n) / 3,  S = state[s],
        T = state[s - beta] + state[s + beta],

    by R_0 = (u^n + 2 v^n)/3 and R_1 = (u^n - v^n)/3 (_site_rows).  With
    y = B, multiplying by u is x + (x << 8 nbytes + 1) and by v is
    x - (x << 8 nbytes), so the class makes 2n linear passes per column it
    writes.  The pair is exact for the same reason as the products: the
    numerator is the value at B of 3 times the new column, whatever signs
    and carries its unmasked slots hold, so the division by 3 leaves no
    remainder (one raises VerificationError), and the quotient, a
    polynomial with nonnegative coefficients that fit their slots up to the
    width, is then masked.  Masking first would cut 3 times the top count
    kept, which may pass its slot.  Class 0 needs no case of its own:
    T = 2S, so 2S - T = 0 and the pull is S u^n.  The columns of one group
    share the group's final width and slot size, since the bounds only grow
    with m.  The first group starts from state[0] = 1, where its products
    cost next to nothing, and a truncated row is dense mod y^(cap+1) while
    n > cap, so both keep the products.

    Untruncated runs are bounded to N <= 2000, and so is truncate_at=J for
    J >= N, which keeps every count; J < N gives the exact counts C_0..C_J
    at any supported q, unless the packed state at the end of the plan,
    the largest one, is past _DP_STATE_MAX_BYTES (_check_state_bytes).
    Both refusals come before any column is packed.
    """
    tag = _check_gid(tag)
    if truncate_at is not None and truncate_at < 0:
        raise ValueError(f"truncate_at must be nonnegative, got {truncate_at}")
    if truncate_at is None or truncate_at >= code_length(field.q, tag):
        cap = _full_length(field.q, tag)
    else:
        cap = truncate_at

    neg, rows = field.neg, field._rows
    counts_beta = trace_spectrum_closed(field, tag)
    # sizes[s] is the number of positions of class {s, -s}
    sizes = [counts_beta[s] + counts_beta[neg(s)] if s else counts_beta[0]
             for s in field.elements()]
    plan = _dp_plan(field, sizes)
    reps, col_of = _orbit_columns(
        field, sizes, [beta for n, betas, _ in plan[1:] if n <= cap for beta in betas])
    _check_state_bytes(field.q, len(reps), sum(len(betas) * n for n, betas, _ in plan),
                       min(cap, sum(len(betas) * min(n, cap) for n, betas, _ in plan)))

    state = [1] + [0] * (len(reps) - 1)
    m = width = 0
    nbytes = 1
    for g, (n, betas, nout) in enumerate(plan):
        k, seen = len(betas), width + 1
        m, width = m + k * n, min(cap, width + k * min(n, cap))
        grown = _slot_bytes(m, width)
        if grown > nbytes:
            state = [_pack(_unpack(col, seen, nbytes), grown) for col in state]
            nbytes = grown
        mask = (1 << (8 * nbytes * (width + 1))) - 1
        if g and n <= cap:
            for i, beta in enumerate(betas, 1):
                minus, plus = rows[neg(beta)], rows[beta]
                cols = reps[:nout if i == k else None]
                state = _pull_by_passes(state, [col_of[minus[s]] for s in cols],
                                        [col_of[plus[s]] for s in cols], n, nbytes, mask)
            continue
        stay, move = _site_rows(n, cap)
        stay, move = _pack(stay, nbytes), _pack(move, nbytes)
        # products[w] = P_w = R_0^(k-w) R_1^w; see the docstring
        powers = [1]
        for _ in range(k):
            powers.append(powers[-1] * stay & mask)
        products, lift = [powers[k]], 1
        for w in range(1, min(k, cap) + 1):
            lift = lift * move & mask
            products.append(powers[k - w] * lift & mask)
        # shift[i]: the columns and multiplicities of reps[i] +- beta over the group
        signed = betas + [neg(beta) for beta in betas]
        shift = []
        for s in reps[:len(state)]:
            hits = Counter(map(col_of.__getitem__, itemgetter(*signed)(rows[s])))
            shift.append((list(hits), list(hits.values())))
        state = _pull_by_newton(state, shift, k, products, nout, mask)
    return WeightDistribution(code=tag, counts=tuple(_unpack(state[0], width + 1, nbytes)))


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
    return WeightDistribution(code=tag, counts=tuple(counts))


# ---------------------------------------------------------------------------
# the Pless power-moment identity


class PlessReport(NamedTuple):
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
