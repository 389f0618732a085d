"""The matrix groups O(3, q), SO(3, q) and Sp(2, q) over GF(3^r).

O(3, q) preserves the symmetric form with Gram matrix

    J = [[0, 1, 0],
         [1, 0, 0],
         [0, 0, 1]]

and is enumerated cell by cell rather than by filtering all of GL(3):
every element factors uniquely as u * sigma_rr * v (optionally preceded
by rho = diag(1, 1, -1)) where

    u = q(A, h) = [[A, A h^2, -A h], [0, 1/A, 0], [0, h, 1]]

runs over the subgroup Q (A a unit, h arbitrary; the membership relation
B + B + h^2 = 0 forces the corner entry B = h^2 in characteristic 3),
sigma_0 = I, sigma_1 swaps the first two coordinates, and v runs over
coset representatives: just the identity for rr = 0, and {q(1, h')} for
rr = 1.  Elements with determinant 1 form SO(3, q): the rr = 0 cells of Q
and the rr = 1 cells of rho Q.

No product is formed: each element is written out from its cell
parameters.  An rr = 0 cell is q(A, h) itself, and with t = h h' an
rr = 1 cell is

    q(A, h) sigma_1 q(1, h') = [[A h^2, A (t^2 + 1 - t), -A h (t + 1)],
                                [1/A,   h'^2 / A,        -h' / A],
                                [h,     h h'^2 + h',     1 - t]],

of trace A h^2 + h'^2/A + (1 - t).  A rho cell is the same matrix with its
last row negated.

Rows that do not depend on every cell parameter are built once and yielded
by reference: the middle row of an rr = 1 cell once per (A, h'), its last
row and that row's rho negation once per (h, h'), (0, 1/A, 0) once per A
and (0, h, 1) once per h in rr = 0 cells.  The top row of an rr = 1 cell is
A times the per-(h, h') triple (h^2, t^2 + 1 - t, -h (t + 1)), kept as the
logs of its entries, so each entry is one lookup in the field's antilog
table at log A + log x.  The per-(h, h') tables are built lazily, one h at
a time, the first time the loop reaches that h, so iter_group stays a
stream: its first elements cost O(q) work at any q.

Sp(2, q) is SL(2, q): the 2x2 matrices preserving the alternating form
[[0, 1], [-1, 0]], which for 2x2 matrices is exactly det == 1.  Its a = 0
cell is [[0, b], [-1/b, d]] for b a unit and any d; for a unit a it is
[[a, b], [c, (1 + b c)/a]] for any b and c.  The top row (a, b) is built
once per (a, b).

Element order is canonical and deterministic: for O(3, q) the cells in the
order (rr=0, Q), (rr=1, Q), (rr=0, rho Q), (rr=1, rho Q), and inside a
cell lexicographic by (enc(A), enc(h), enc(h')); for Sp(2, q)
lexicographic by (enc(a), enc(b), enc(c) or enc(d)).

Every element written out is checked by one call of its group's
predicate: the six entry equations of is_orthogonal for O(3, q), those
and det = 1 in the one function is_special_orthogonal for SO(3, q), and
det = 1 for Sp(2, q).  For w in O(3, q), with rows (a, b, c), (d, e, f),
(g, h, i), the cofactor matrix is det(w) J w J, so its top row
(ei - fh, fg - di, dh - eg) is det(w) (e, d, f), and
is_special_orthogonal reads det = 1 off the cofactor at e, or at d when
e = 0, with mat_det as its oracle.

iter_group is the streaming path: it checks each element as it yields
it, at any q, and it is the oracle for the bulk path.  enumerate_group
(q <= 27) is the bulk path: it writes SO(3, q) or Sp(2, q) out into a
tuple and then maps the predicate over the tuple.  It takes O(3, q)
from the checked SO(3, q) instead of a second walk: in the canonical
order it is S[:n0] + rho S[n0:] + rho S[:n0] + S[n0:], with S the
SO(3, q) tuple and n0 = q(q - 1) the size of its rr = 0 cell.  Each
rho w shares w's top and middle rows and negates its last row; rho is
checked once, and rho times a member is a member by closure.

The membership checks read each entry's log once and form each product
of two entries as one antilog lookup at the sum of their logs, as
Field.mul does.  They, the cells, rho, mat_trace and trace_spectrum make
no Field method call per entry: a sum is read off the field's
addition-table rows as rows[rows[x][y]][z], and a difference as
rows[x][neg[y]] with the negation list.  Above q = 729 the rows are a
view through the split table, so the same code runs at every q.  mat_mul
keeps Field.add and Field.mul, which read the same rows one call at a
time; it and the digit-sum adder _add_slow are the oracles.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product, repeat
from typing import Iterator

from .charsums import delta_table, kloosterman_all
from .eisenstein import CycInt, additive_char, char_sum
from .errors import UnsupportedScaleError, VerificationError
from .field import Field

GROUPS = ("so3", "o3", "sp2")

# Materializing a full group only makes sense at desk scale; streaming via
# iter_group stays available for larger q.
_ENUMERATE_MAX_Q = 27

Mat = tuple


def _check_gid(gid: str) -> None:
    """Only the names in GROUPS: another spelling would split the caches."""
    if gid not in GROUPS:
        raise ValueError(f"unknown group {gid!r}; expected one of {GROUPS}")


def group_order(q: int, gid: str) -> int:
    """|O(3,q)| = 2q(q^2-1); |SO(3,q)| = |Sp(2,q)| = q(q^2-1)."""
    _check_gid(gid)
    base = q * (q * q - 1)
    return 2 * base if gid == "o3" else base


# ---------------------------------------------------------------------------
# matrix helpers (matrices are tuples of row tuples of enc integers)


def mat_mul(field: Field, x: Mat, y: Mat) -> Mat:
    n = len(x)
    add, mul = field.add, field.mul
    rows = []
    for i in range(n):
        xi = x[i]
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add(acc, mul(xi[k], y[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def mat_trace(field: Field, x: Mat) -> int:
    """The trace of a 3x3 or 2x2 matrix, its diagonal summed through the
    addition table's rows."""
    rows = field._rows
    if len(x) == 2:
        return rows[x[0][0]][x[1][1]]
    return rows[rows[x[0][0]][x[1][1]]][x[2][2]]


def mat_det(field: Field, x: Mat) -> int:
    """The determinant by cofactors along the top row.  Each entry's log is
    read once and each product of two entries is one _exp2 lookup at the
    sum of their logs, as in Field.mul; a triple product takes two, since
    three times the log of zero falls outside _exp2.  Each difference
    u - v is read off the addition table's rows as rows[u][neg[v]]."""
    log, exp2, rows, neg = field._log, field._exp2, field._rows, field._neg
    if len(x) == 2:
        (a, b), (c, d) = x
        return rows[exp2[log[a] + log[d]]][neg[exp2[log[b] + log[c]]]]
    (a, b, c), (d, e, f), (g, h, i) = x
    a, b, c, d, e, f, g, h, i = (log[a], log[b], log[c], log[d], log[e], log[f],
                                 log[g], log[h], log[i])
    m1 = exp2[a + log[rows[exp2[e + i]][neg[exp2[f + h]]]]]
    m2 = exp2[b + log[rows[exp2[d + i]][neg[exp2[f + g]]]]]
    m3 = exp2[c + log[rows[exp2[d + h]][neg[exp2[e + g]]]]]
    return rows[rows[m1][neg[m2]]][m3]


def is_orthogonal(field: Field, w: Mat) -> bool:
    """Whether w J w^T == J (as J^2 = I, the same as w^T J w == J).  With
    rows (a, b, c), (d, e, f), (g, h, i) and 2 = -1, its six entries read

        c^2 = a b,   f^2 = d e,   i^2 = g h + 1,
        a e + b d + c f = 1,   a h + b g + c i = 0,   d h + e g + f i = 0.

    Each entry's log is read once, each product is one _exp2 lookup at
    the sum of two logs, and each sum x + y + z is read off the addition
    table's rows as rows[rows[x][y]][z].
    """
    log, exp2, rows = field._log, field._exp2, field._rows
    (a, b, c), (d, e, f), (g, h, i) = w
    a, b, c, d, e, f, g, h, i = (log[a], log[b], log[c], log[d], log[e], log[f],
                                 log[g], log[h], log[i])
    return (exp2[c + c] == exp2[a + b] and exp2[f + f] == exp2[d + e]
            and exp2[i + i] == rows[exp2[g + h]][1]
            and rows[rows[exp2[a + e]][exp2[b + d]]][exp2[c + f]] == 1
            and rows[rows[exp2[a + h]][exp2[b + g]]][exp2[c + i]] == 0
            and rows[rows[exp2[d + h]][exp2[e + g]]][exp2[f + i]] == 0)


def is_special_orthogonal(field: Field, w: Mat) -> bool:
    """is_orthogonal(field, w) and mat_det(field, w) == 1 in one call: the
    six equations of is_orthogonal, then det = 1 read off one cofactor.

    With rows (a, b, c), (d, e, f), (g, h, i): if w J w^T = J, then
    w^-1 = J w^T J, so the cofactor matrix det(w) (w^-1)^T is
    det(w) J w J, whose top row (ei - fh, fg - di, dh - eg) is
    det(w) (e, d, f).  det(w)^2 = 1, so det(w) = 1 exactly when the
    cofactor at a nonzero entry of the middle row equals that entry, as
    1 != -1.  The middle row is nonzero, since w is invertible, and the
    equation f^2 = d e makes f = 0 when e = 0; so the cofactor at e
    decides, or else the one at d.  mat_det is the oracle.
    """
    log, exp2, rows, neg = field._log, field._exp2, field._rows, field._neg
    (a, b, c), (d, e, f), (g, h, i) = w
    mid_d, mid_e = d, e
    a, b, c, d, e, f, g, h, i = (log[a], log[b], log[c], log[d], log[e], log[f],
                                 log[g], log[h], log[i])
    if not (exp2[c + c] == exp2[a + b] and exp2[f + f] == exp2[d + e]
            and exp2[i + i] == rows[exp2[g + h]][1]
            and rows[rows[exp2[a + e]][exp2[b + d]]][exp2[c + f]] == 1
            and rows[rows[exp2[a + h]][exp2[b + g]]][exp2[c + i]] == 0
            and rows[rows[exp2[d + h]][exp2[e + g]]][exp2[f + i]] == 0):
        return False
    if mid_e:
        return rows[exp2[e + i]][neg[exp2[f + h]]] == mid_e
    return rows[exp2[f + g]][neg[exp2[d + i]]] == mid_d


def is_symplectic(field: Field, w: Mat) -> bool:
    """Whether w preserves the alternating form [[0,1],[-1,0]].

    For 2x2 matrices the single nontrivial entry of w^T Jhat w is det(w),
    so this is det == 1, computed inline as in mat_det.
    """
    log, exp2, rows, neg = field._log, field._exp2, field._rows, field._neg
    (a, b), (c, d) = w
    return rows[exp2[log[a] + log[d]]][neg[exp2[log[b] + log[c]]]] == 1


_PREDICATES = {"so3": is_special_orthogonal, "o3": is_orthogonal, "sp2": is_symplectic}


def _iter_cells(field: Field, gid: str) -> Iterator[Mat]:
    """Every element of the group in canonical order, written out from its
    cell parameters as in the module docstring.  Rows that do not depend on
    every parameter are built once and yielded by reference, a product by
    A or 1/A is one _exp2 lookup at the sum of the logs, and a sum is read
    off the addition table's rows.  Nothing is checked here."""
    inv, rows, neg = field.inv, field._rows, field._neg
    log, exp2 = field._log, field._exp2
    one = rows[1]  # one[x] = 1 + x
    elems = field.elements()
    if gid == "sp2":
        # a = 0: det = -bc = 1 forces c = -1/b, and d is free
        for b in field.units():
            top, c = (0, b), neg[inv(b)]
            for d in elems:
                yield (top, (c, d))
        for a in field.units():
            lia = log[inv(a)]
            for b in elems:
                top, lb = (a, b), log[b]
                for c in elems:
                    yield (top, (c, exp2[lia + log[one[exp2[lb + log[c]]]]]))
        return
    cells = ((0, False), (1, True)) if gid == "so3" else (
        (0, False), (1, False), (0, True), (1, True))
    lsq = [log[exp2[2 * log[h]]] for h in elems]  # log h^2
    lneg = [log[neg[h]] for h in elems]  # log -h
    lows0 = [(0, h, 1) for h in elems]
    rho_lows0 = [tuple(map(neg.__getitem__, low)) for low in lows0]
    tables: list = [None] * field.q

    def table(h: int) -> tuple:
        # With t = h h': the logs of the top row's entries over A, t^2 + 1 - t
        # and -h (t + 1), then the last row and its rho negation, over h'.
        l1s, l2s, lows, rho_lows = [], [], [], []
        lh = log[h]
        for hp in elems:
            t = exp2[lh + log[hp]]
            one_t = one[neg[t]]
            l1s.append(log[rows[exp2[2 * log[t]]][one_t]])
            l2s.append(log[exp2[lneg[h] + log[one[t]]]])
            low = (h, rows[exp2[lh + lsq[hp]]][hp], one_t)
            lows.append(low)
            rho_lows.append(tuple(map(neg.__getitem__, low)))
        tables[h] = out = (l1s, l2s, lows, rho_lows)
        return out

    for rr, rho in cells:
        for a in field.units():
            la, ia = log[a], inv(a)
            if rr == 0:
                mid = (0, ia, 0)
                for h, low in zip(elems, rho_lows0 if rho else lows0):
                    yield ((a, exp2[la + lsq[h]], exp2[la + lneg[h]]), mid, low)
                continue
            lia = log[ia]
            mids = [(ia, exp2[lia + lsq[hp]], exp2[lia + lneg[hp]]) for hp in elems]
            for h in elems:
                l1s, l2s, lows, rho_lows = tables[h] or table(h)
                ah2 = exp2[la + lsq[h]]
                for mid, l1, l2, low in zip(mids, l1s, l2s, rho_lows if rho else lows):
                    yield ((ah2, exp2[la + l1], exp2[la + l2]), mid, low)


def _construction_bug(field: Field, gid: str, w: Mat) -> VerificationError:
    return VerificationError(
        f"construction bug: {gid} element {w} fails the defining relation at q={field.q}")


def iter_group(field: Field, gid: str) -> Iterator[Mat]:
    """Stream the group in canonical order, validating each element."""
    _check_gid(gid)
    check = _PREDICATES[gid]
    for w in _iter_cells(field, gid):
        if not check(field, w):
            raise _construction_bug(field, gid, w)
        yield w


def _rho_times(field: Field, elems: tuple[Mat, ...]) -> tuple[Mat, ...]:
    """rho w for each w: the top and middle rows by reference, the last row
    negated once per distinct last row and shared."""
    neg, negated = field._neg, {}
    out = []
    for top, mid, low in elems:
        rho_low = negated.get(low)
        if rho_low is None:
            rho_low = negated[low] = (neg[low[0]], neg[low[1]], neg[low[2]])
        out.append((top, mid, rho_low))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_group(field: Field, gid: str) -> tuple[Mat, ...]:
    """The whole group as a tuple in canonical order, with global checks.

    SO(3, q) and Sp(2, q) are written out from their cells into a tuple,
    and then each element is checked with one call of the group's
    predicate.  O(3, q) is SO(3, q) and rho SO(3, q), taken from the cached
    SO(3, q) in the canonical cell order: rho is checked once, and rho
    times a checked element lies in O(3, q) by closure.  On top of that,
    checks that the element count matches the closed-form order and that
    no element was emitted twice: |G| distinct members of G are G itself,
    so the result is also closed under products.  Guarded to q <= 27; use
    iter_group to stream larger fields.
    """
    _check_gid(gid)
    if field.q > _ENUMERATE_MAX_Q:
        raise UnsupportedScaleError(
            f"full materialization bounded at q <= {_ENUMERATE_MAX_Q}, got q = {field.q}"
        )
    if gid == "o3":
        rho = ((1, 0, 0), (0, 1, 0), (0, 0, field._neg[1]))
        if not _PREDICATES["o3"](field, rho):
            raise _construction_bug(field, gid, rho)
        so3 = enumerate_group(field, "so3")
        n0 = field.q * (field.q - 1)  # the rr = 0 cell, q(A, h)
        elems = (so3[:n0] + _rho_times(field, so3[n0:])
                 + _rho_times(field, so3[:n0]) + so3[n0:])
    else:
        elems = tuple(_iter_cells(field, gid))
        check = _PREDICATES[gid]
        if not all(map(check, repeat(field), elems)):
            raise _construction_bug(field, gid, next(w for w in elems if not check(field, w)))
    expected = group_order(field.q, gid)
    if len(elems) != expected:
        raise VerificationError(
            f"{gid} at q={field.q}: enumerated {len(elems)} elements, order says {expected}"
        )
    if len(set(elems)) != len(elems):
        raise VerificationError(f"{gid} at q={field.q}: enumeration emitted duplicates")
    return elems


def brute_force_group(field: Field, gid: str) -> list[Mat]:
    """All n x n matrices over GF(3) that the group's defining relation admits.

    Scans 3^9 candidates for O(3)/SO(3) and 3^4 for Sp(2); only sensible
    (and only allowed) at q = 3.  The oracle for enumerate_group.
    """
    _check_gid(gid)
    if field.q != 3:
        raise ValueError("the brute-force filter oracle is only available at q = 3")
    n = 2 if gid == "sp2" else 3
    rows = list(product(range(3), repeat=n))
    return [w for w in product(rows, repeat=n) if _PREDICATES[gid](field, w)]


# ---------------------------------------------------------------------------
# trace spectra


@lru_cache(maxsize=None)
def trace_spectrum(field: Field, gid: str) -> tuple[int, ...]:
    """N(beta) = #{w in G : Tr w == beta} for all beta, by enumeration; each
    trace is its diagonal summed through the addition table's rows."""
    _check_gid(gid)
    rows, elems = field._rows, enumerate_group(field, gid)
    counts = [0] * field.q
    if gid == "sp2":
        for (a, _), (_, d) in elems:
            counts[rows[a][d]] += 1
    else:
        for (a, _, _), (_, e, _), (_, _, i) in elems:
            counts[rows[rows[a][e]][i]] += 1
    return tuple(counts)


def trace_spectrum_closed(field: Field, gid: str) -> tuple[int, ...]:
    """The same counts from the closed forms in terms of delta(1, .)."""
    _check_gid(gid)
    q, elems = field.q, field.elements()
    d1 = delta_table(field, 1)
    if gid == "sp2":
        return tuple(q * q - q + q * d1[beta] for beta in elems)
    # beta - 1 = (-1) + beta and beta + 1 = 1 + beta, read off two rows
    minus, plus = field._rows[field._neg[1]], field._rows[1]
    if gid == "so3":
        return tuple(q * q - q + q * d1[minus[beta]] for beta in elems)
    return tuple(2 * q * q - 2 * q + q * d1[minus[beta]] + q * d1[plus[beta]] for beta in elems)


# ---------------------------------------------------------------------------
# exponential sums over the groups


def gauss_sum_enumerated(field: Field, gid: str, a: int) -> CycInt:
    """G(a) = sum_w lambda(a Tr w) = sum_beta N(beta) lambda(a beta) over the
    enumerated trace spectrum, for any a in GF(q); G(0) is the group order."""
    if not 0 <= a < field.q:
        raise ValueError(f"a must be an element of GF({field.q}), got {a}")
    return char_sum(field, ((field.mul(a, beta), n)
                            for beta, n in enumerate(trace_spectrum(field, gid))))


def gauss_sum_closed(field: Field, gid: str, a: int) -> CycInt:
    """Closed form for sum_w lambda(a Tr w):

        SO(3,q): lambda(a) q K(a^2)
        O(3,q):  (lambda(a) + lambda(-a)) q K(a^2), a rational integer
        Sp(2,q): q K(a^2), the SO(3,q) value divided by lambda(a)
    """
    _check_gid(gid)
    if not 1 <= a < field.q:
        raise ValueError(f"a must be a unit of GF({field.q}), got {a}")
    k = kloosterman_all(field)[field.mul(a, a)]
    if gid == "sp2":
        return CycInt(field.q * k, 0)
    lam = additive_char(field, a)
    if gid == "so3":
        return lam * (field.q * k)
    val = (lam + additive_char(field, field.neg(a))) * (field.q * k)
    if not val.is_real():
        raise VerificationError(f"O(3,q) exponential sum not real at q={field.q}, a={a}")
    return val

