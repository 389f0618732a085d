from itertools import product
from random import Random

import pytest

from klc.charsums import (
    FAMILIES,
    _salie_m,
    delta_table,
    delta_table_brute,
    kloosterman_all,
    kloosterman_all_brute,
    kloosterman_gl,
    kloosterman_gl_brute,
    moment_table,
    prop_e_check,
    salie_check,
)
from klc.errors import UnsupportedScaleError, VerificationError
from klc.field import Field

# A non-default monic irreducible of each degree, constant term first.
OTHER_MODULUS = {1: (1, 1), 2: (2, 1, 1), 3: (1, 0, 2, 1), 4: (1, 0, 1, 1, 1),
                 5: (1, 0, 0, 0, 2, 1), 6: (2, 2, 0, 0, 0, 0, 1),
                 7: (1, 2, 1, 0, 0, 0, 0, 1), 8: (2, 0, 2, 0, 0, 0, 0, 0, 1)}

# ---------------------------------------------------------------------------
# the basic sums


def test_kloosterman_q3_values():
    f = Field(1)
    assert kloosterman_all(f) == (None, -1, 2)
    assert kloosterman_gl(f, 1, 1) == -1
    assert kloosterman_gl(f, 1, 2) == 2


def test_kloosterman_rejects_non_units():
    f = Field(2)
    for bad in (0, 9, -1):
        for t in (0, 1):
            with pytest.raises(ValueError):
                kloosterman_gl(f, t, bad)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_weil_bound_and_realness(r):
    f = Field(r)
    for a in f.units():
        k = kloosterman_all(f)[a]
        assert isinstance(k, int)
        assert k * k <= 4 * f.q


@pytest.mark.parametrize("r", [1, 2, 3])
def test_frobenius_invariance(r):
    """K(a^3) = K(a): cubing permutes the units and fixes every trace."""
    f = Field(r)
    for a in f.units():
        assert kloosterman_all(f)[f.pow(a, 3)] == kloosterman_all(f)[a]


def test_kloosterman_q9_values():
    assert kloosterman_all(Field(2))[1:] == (5, 2, -1, -4, 2, -1, -4, 2)


def test_modulus_independence():
    """Character sums are basis-free: a different irreducible gives the same K multiset."""
    f1, f2 = Field(2), Field(2, (2, 1, 1))
    ks1 = sorted(kloosterman_all(f1)[1:])
    ks2 = sorted(kloosterman_all(f2)[1:])
    assert ks1 == ks2


@pytest.mark.parametrize("r,modulus", [(r, None) for r in range(1, 7)]
                         + [(r, OTHER_MODULUS[r]) for r in range(2, 6)])
def test_kloosterman_all_matches_brute_force(r, modulus):
    f = Field(r, modulus)
    assert kloosterman_all(f) == kloosterman_all_brute(f)


def test_corrupted_trace_is_a_verification_error():
    """A trace table that is not a trace breaks the realness of some K(a)."""
    f = Field(2)
    g = f.generator
    f._trace = list(f._trace)
    f._trace[g] = (f._trace[g] + 1) % 3
    kloosterman_all.cache_clear()  # an equal Field may have a table cached
    try:
        with pytest.raises(VerificationError, match="not real"):
            kloosterman_all(f)
    finally:
        kloosterman_all.cache_clear()


def test_weil_bound_violation_is_a_verification_error():
    """A zero trace table makes every count N_1 = N_2 = 0, so K is real but
    K(1) = q - 1 = 8 at q = 9, and 8^2 > 4q = 36."""
    f = Field(2)
    f._trace = [0] * f.q
    with pytest.raises(VerificationError, match="Weil bound violated"):
        kloosterman_all.__wrapped__(f)  # the cache keys on field equality


# ---------------------------------------------------------------------------
# sums over GL(t, q)


def test_gl_kloosterman_anchors():
    f = Field(1)
    assert kloosterman_gl(f, 0, 1) == 1
    assert kloosterman_gl(f, 1, 1) == -1
    assert kloosterman_gl(f, 2, 1) == 21
    assert kloosterman_gl(f, 2, 2) == 30


@pytest.mark.parametrize("r", [1, 2])
def test_gl_recursion_matches_brute_force(r):
    f = Field(r)
    for a in f.units():
        for t in (0, 1, 2):
            assert kloosterman_gl(f, t, a) == kloosterman_gl_brute(f, t, a)


def test_gl_recursion_at_t3_matches_brute_force_over_gl3_f3():
    """K_GL(3) by the recursion against a sum over all 3^9 matrices of
    M_3(GF(3)): w is a unit when det != 0, and tr(w^-1) is the sum of the
    principal 2 x 2 minors over det, where 1/det = det in GF(3).  The sum
    sum_w zeta^(tr w + a tr w^-1) is c_0 + c_1 zeta + c_2 zeta^2 over the
    counts c_s of each exponent; it is real, so c_1 = c_2 and it is
    c_0 - c_1."""
    f = Field(1)
    for a, expected in ((1, -837), (2, 1836)):
        counts = [0, 0, 0]
        for e in product(range(3), repeat=9):
            w = [e[0:3], e[3:6], e[6:9]]
            minors = [w[i][i] * w[j][j] - w[i][j] * w[j][i] for i, j in ((0, 1), (0, 2), (1, 2))]
            det = sum(w[0][k] * (w[1][(k + 1) % 3] * w[2][(k + 2) % 3]
                                 - w[1][(k + 2) % 3] * w[2][(k + 1) % 3]) for k in range(3)) % 3
            if det:
                counts[(w[0][0] + w[1][1] + w[2][2] + a * sum(minors) * det) % 3] += 1
        assert sum(counts) == 26 * 24 * 18  # |GL(3, 3)|
        assert counts[1] == counts[2]
        assert kloosterman_gl(f, 3, a) == counts[0] - counts[1] == expected


def test_gl_guards():
    f = Field(1)
    with pytest.raises(ValueError):
        kloosterman_gl(f, -1, 1)
    with pytest.raises(UnsupportedScaleError):
        kloosterman_gl_brute(f, 3, 1)
    with pytest.raises(ValueError):
        kloosterman_gl_brute(f, 2, 0)


# ---------------------------------------------------------------------------
# moment tables


def test_moments_q3():
    mt = moment_table(Field(1), 4)
    assert mt["MK"][0] == 2
    assert mt["MK"][1] == 1
    assert mt["MK"][2] == 5
    assert mt["SK"][0] == 1
    assert mt["SK"][1] == -1
    assert mt["T0SK"][0] == 0
    assert mt["T12SK"][0] == 2
    assert mt["T12SK"][1] == -2


@pytest.mark.parametrize("r", [1, 2, 3])
def test_moment_family_relations(r):
    """2 SK^h = T0SK^h + T12SK^h (each square a^2 is hit by two units a),
    and the h = 0 moments are just index-set sizes."""
    f = Field(r)
    mt = moment_table(f, 8)
    q = f.q
    assert mt["MK"][0] == q - 1
    assert mt["SK"][0] == (q - 1) // 2
    assert mt["T0SK"][0] == q // 3 - 1
    assert mt["T12SK"][0] == 2 * q // 3
    for h in range(9):
        assert 2 * mt["SK"][h] == mt["T0SK"][h] + mt["T12SK"][h]


def test_first_mk_moment_is_one():
    # sum_a K(a) = 1 for every q: swap the order of summation.
    for r in (1, 2, 3, 4):
        assert moment_table(Field(r), 1)["MK"][1] == 1


def _moment_entries_by_units(field, hmax):
    """Oracle for moment_table: each unit adds its powers to its families."""
    kv = kloosterman_all(field)
    entries = {(f, h): 0 for f in ("MK", "SK", "T0SK", "T12SK") for h in range(hmax + 1)}
    for a in field.units():
        k = kv[a]
        ksq = kv[field.mul(a, a)]
        square = field.is_square(a)
        tr_zero = field.trace(a) == 0
        pk, pksq = 1, 1
        for h in range(hmax + 1):
            entries[("MK", h)] += pk
            if square:
                entries[("SK", h)] += pk
            if tr_zero:
                entries[("T0SK", h)] += pksq
            else:
                entries[("T12SK", h)] += pksq
            pk *= k
            pksq *= ksq
    return entries


@pytest.mark.parametrize("modulus", ["default", "other"])
@pytest.mark.parametrize("r", range(1, 9))
def test_moment_table_matches_the_per_unit_sums(r, modulus):
    f = Field(r, OTHER_MODULUS[r] if modulus == "other" else None)
    mt = moment_table(f, 16)
    oracle = _moment_entries_by_units(f, 16)
    assert list(mt) == list(FAMILIES)
    assert all(len(sums) == 17 for sums in mt.values())
    assert {(fam, h): v for fam, sums in mt.items() for h, v in enumerate(sums)} == oracle


def test_moment_table_guard():
    with pytest.raises(ValueError):
        moment_table(Field(1), -1)


# ---------------------------------------------------------------------------
# delta


def test_delta_base_cases():
    f = Field(1)
    assert delta_table(f, 0) == (1, 0, 0)
    assert delta_table(f, 1) == (0, 1, 1)  # 1 + 1/1 = 2, 2 + 1/2 = 1


@pytest.mark.parametrize("r", [1, 2, 3])
def test_delta_one_trichotomy(r):
    """delta(1, beta) is the number of unit roots of x^2 - beta*x + 1."""
    f = Field(r)
    for beta in f.elements():
        roots = sum(
            1
            for x in f.units()
            if f.add(f.sub(f.mul(x, x), f.mul(beta, x)), 1) == 0
        )
        assert delta_table(f, 1)[beta] == roots
        assert roots in (0, 1, 2)


@pytest.mark.parametrize("r", [1, 2])
def test_delta_total_and_convolution(r):
    f = Field(r)
    q = f.q
    for m in range(4):
        assert sum(delta_table(f, m)) == (q - 1) ** m
    d1, d2 = delta_table(f, 1), delta_table(f, 2)
    for beta in f.elements():
        conv = sum(d1[g] * d1[f.sub(beta, g)] for g in f.elements())
        assert d2[beta] == conv


@pytest.mark.parametrize("modulus", ["default", "other"])
def test_delta_fold_above_729_matches_digit_sums(modulus):
    """At q = 2187 the fold reads the split-table row view; a seeded sample
    of delta(2, beta) against sum_y delta(1, y) delta(1, beta - y), each
    index formed by the digit-sum adder."""
    f = Field(7, OTHER_MODULUS[7] if modulus == "other" else None)
    d1, d2 = delta_table(f, 1), delta_table(f, 2)
    rng = Random(7)
    for beta in (0, 1, *(rng.randrange(f.q) for _ in range(3))):
        conv = sum(d1[y] * d1[f._add_slow(beta, f.neg(y))] for y in f.elements())
        assert d2[beta] == conv, beta


def test_delta_guards():
    f = Field(1)
    with pytest.raises(ValueError):
        delta_table(f, -1)
    with pytest.raises(UnsupportedScaleError):
        delta_table_brute(f, 5)


@pytest.mark.parametrize("modulus", ["default", "other"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_delta_table_matches_brute_force(r, modulus):
    f = Field(r, OTHER_MODULUS[r] if modulus == "other" else None)
    for m in range(5):
        assert delta_table(f, m) == delta_table_brute(f, m)


def test_delta_past_the_brute_force_bound():
    """delta_table is bounded as delta_table_brute is: both routes to
    delta(m, .) stop at m = 4, the largest m any caller asks for, and
    refuse a negative m."""
    f = Field(1)
    assert sum(delta_table(f, 4)) == 2**4
    for table in (delta_table, delta_table_brute):
        with pytest.raises(UnsupportedScaleError, match="m <= 4"):
            table(f, 5)
        with pytest.raises(ValueError):
            table(f, -1)


# ---------------------------------------------------------------------------
# reported identities


def _salie_m_brute(field, k):
    """Oracle for _salie_m: enumerate all (q-1)^k unit tuples."""
    count = 0
    for tup in product(field.units(), repeat=k):
        s = t = 0
        for v in tup:
            s, t = field.add(s, v), field.add(t, field.inv(v))
        count += s == 1 and t == 1
    return count


@pytest.mark.parametrize("modulus", ["default", "other"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_salie_pair_count_matches_enumeration(r, modulus):
    f = Field(r, OTHER_MODULUS[r] if modulus == "other" else None)
    assert [_salie_m(f, k) for k in range(4)] == [_salie_m_brute(f, k) for k in range(4)]


def test_salie_holds_at_prime_q():
    reports = salie_check(Field(1), 4)
    assert [rep.h for rep in reports] == [1, 2, 3, 4]
    assert all(rep.equal for rep in reports)
    assert [rep.lhs for rep in reports] == [1, 5, 7, 17]


def test_salie_values_at_q9_frozen():
    """The recurrence holds at every q, q = 9 included.  Freeze the values so
    any drift in the pair count of M_(h-1) or in the moment table is caught."""
    reports = salie_check(Field(2), 4)
    assert [rep.lhs for rep in reports] == [1, 71, 19, 1187]
    assert all(rep.equal for rep in reports)


def test_salie_guard():
    with pytest.raises(UnsupportedScaleError):
        salie_check(Field(1), 5)


@pytest.mark.parametrize("r", [1, 2])
def test_prop_e(r):
    f = Field(r)
    reports = prop_e_check(f, 3)
    assert len(reports) == 4 * f.q
    assert all(rep.equal for rep in reports)
    assert all(rep.lhs == rep.rhs for rep in reports)


def test_prop_e_guard():
    with pytest.raises(UnsupportedScaleError):
        prop_e_check(Field(1), 5)
