from random import Random

import pytest
from hypothesis import given, strategies as st

from klc.eisenstein import ONE, ZERO, ZETA, CycInt, additive_char, char_sum
from klc.errors import VerificationError
from klc.field import Field

ints = st.integers(-(10**6), 10**6)
cycs = st.builds(CycInt, ints, ints)

# ---------------------------------------------------------------------------
# ring structure


def test_zeta_is_a_primitive_cube_root():
    assert ZETA * ZETA * ZETA == ONE
    assert ZETA * ZETA != ONE
    assert ONE + ZETA + ZETA * ZETA == ZERO


def zeta_pow(t):
    """zeta^t for any integer t, by repeated products."""
    out = ONE
    for _ in range(t % 3):
        out = out * ZETA
    return out


def test_zeta_pow_cycle():
    assert [zeta_pow(t) for t in range(3)] == [ONE, ZETA, CycInt(-1, -1)]
    for t in range(-6, 12):
        assert zeta_pow(t) == zeta_pow(t + 3)
        assert zeta_pow(t) * zeta_pow(-t) == ONE


@given(cycs, cycs, cycs)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


@given(cycs, ints)
def test_mixed_int_arithmetic(x, n):
    assert x + n == x + CycInt(n, 0)
    assert n + x == x + n
    assert x - n == x + (-n)
    assert n - x == -(x - n)
    assert n * x == CycInt(n * x.a, n * x.b)
    assert (x == n) == (x.b == 0 and x.a == n)


@given(cycs, cycs)
def test_conj_and_norm(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x
    assert (x * y).norm() == x.norm() * y.norm()
    assert x.norm() >= 0
    assert x * x.conj() == CycInt(x.norm(), 0)


@given(cycs)
def test_real_part(x):
    assert (x + x.conj()).b == 0
    assert (x + x.conj()).a == x.two_re()
    assert x.is_real() == (x.b == 0)


def test_to_int_guards_realness():
    assert CycInt(7, 0).to_int() == 7
    with pytest.raises(VerificationError):
        ZETA.to_int()
    with pytest.raises(VerificationError):
        CycInt(4, -2).to_int()


def test_truthiness():
    assert not ZERO
    assert ONE and ZETA and CycInt(0, -3)


# ---------------------------------------------------------------------------
# the additive character


@pytest.mark.parametrize("r", [1, 2, 3])
def test_character_is_multiplicative_on_sums(r):
    f = Field(r)
    step = 1 if f.q <= 9 else 3
    for x in range(0, f.q, step):
        for y in f.elements():
            assert additive_char(f, f.add(x, y)) == additive_char(f, x) * additive_char(f, y)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_character_orthogonality(r):
    f = Field(r)
    total = sum((additive_char(f, x) for x in f.elements()), ZERO)
    assert total == ZERO


def test_character_conjugate_is_negation():
    f = Field(2)
    for x in f.elements():
        assert additive_char(f, f.neg(x)) == additive_char(f, x).conj()
        assert additive_char(f, 0) == ONE


# ---------------------------------------------------------------------------
# the character-sum kernel


@pytest.mark.parametrize("r,modulus", [(1, None), (1, (1, 1)), (2, None), (2, (2, 1, 1)),
                                       (3, None), (3, (1, 0, 2, 1)),
                                       (4, None), (4, (1, 0, 1, 1, 1))])
def test_char_sum_matches_the_ring_sum(r, modulus):
    """Counting by trace residue gives sum w * lambda(x) as summed term by term
    in Z[zeta], for multisets with repeats, zero and negative weights."""
    f = Field(r, modulus)
    rng = Random(r)
    for size in (0, 1, 2, f.q, 3 * f.q):
        terms = [(rng.randrange(f.q), rng.randint(-7, 7)) for _ in range(size)]
        oracle = CycInt(0, 0)
        for x, w in terms:
            oracle = oracle + additive_char(f, x) * w
        assert char_sum(f, terms) == oracle, terms
        assert char_sum(f, iter(terms)) == oracle
