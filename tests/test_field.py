from random import Random

import pytest
from hypothesis import given, strategies as st

import klc.field as field_module
from klc.errors import FieldConfigError, VerificationError
from klc.field import Field, default_modulus, is_irreducible

# ---------------------------------------------------------------------------
# construction and modulus selection


def test_default_moduli():
    assert Field(1).modulus == (0, 1)
    assert Field(2).modulus == (1, 0, 1)


def test_default_modulus_is_smallest_irreducible():
    """Re-derive the r=2 default by scanning encodings from below."""
    for m in range(3**2):
        coeffs = (m % 3, (m // 3) % 3, 1)
        if coeffs == (1, 0, 1):
            break
        assert not is_irreducible(coeffs)
    assert is_irreducible((1, 0, 1))
    for r in range(1, 6):
        assert is_irreducible(default_modulus(r))
        assert len(default_modulus(r)) == r + 1


def test_bad_configurations():
    with pytest.raises(FieldConfigError):
        Field(0)
    with pytest.raises(FieldConfigError):
        Field(9)
    with pytest.raises(FieldConfigError):
        Field(2, (0, 1, 1))  # t^2 + t = t(t + 1)
    with pytest.raises(FieldConfigError):
        Field(2, (1, 0, 0, 1))  # wrong degree
    with pytest.raises(FieldConfigError):
        Field(2, (1, 0, 2))  # not monic
    with pytest.raises(FieldConfigError):
        Field(2, (3, 0, 1))  # coefficient outside GF(3)


def test_explicit_modulus_accepted():
    f = Field(2, (2, 1, 1))  # t^2 + t + 2, the other kind of irreducible
    assert f.q == 9
    assert f.mul(3, 3) == 1 + 2 * 3  # t^2 = -t - 2 = 2t + 1


# ---------------------------------------------------------------------------
# the tables against their per-entry definitions


def _second_modulus(r):
    """The next irreducible after the default, in encoding order."""
    default = default_modulus(r)
    for m in range(3**r):
        coeffs = tuple((m // 3**k) % 3 for k in range(r)) + (1,)
        if coeffs != default and is_irreducible(coeffs):
            return coeffs


def _neg_by_digits(x):
    out, shift = 0, 1
    while x:
        out += (-(x % 3) % 3) * shift
        x //= 3
        shift *= 3
    return out


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("second", [False, True])
def test_tables_match_their_definitions(r, second):
    f = Field(r, _second_modulus(r) if second else None)
    q = f.q
    # exp is the walk of the generator by raw products, log inverts it
    assert len(f._exp) == q - 1 and f._exp[0] == 1
    for i in range(1, q - 1):
        assert f._exp[i] == f._mul_raw(f._exp[i - 1], f.generator)
    assert f._mul_raw(f._exp[-1], f.generator) == 1
    assert sorted(f._exp) == list(range(1, q))
    assert all(f._log[x] == i for i, x in enumerate(f._exp))
    # the generator is the smallest element of order q - 1
    for c in range(2, f.generator):
        assert any(f.pow(c, (q - 1) // p) == 1 for p in _primes(q - 1))
    for x in f.elements():
        assert f.neg(x) == _neg_by_digits(x)
        tr = 0
        for j in range(r):
            tr = f._add_slow(tr, f.pow(x, 3**j))
        assert f.trace(x) == tr
    if q <= 729:
        rows = f.elements() if q <= 243 else range(0, q, 7)
        for x in rows:
            assert f._add_table[x] == [f._add_slow(x, y) for y in f.elements()]
    else:
        assert f._add_table is None


def test_trace_outside_the_prime_field_is_a_verification_error(monkeypatch):
    monkeypatch.setattr(Field, "_add_slow", lambda self, x, y: x + y + 3)
    with pytest.raises(VerificationError, match="outside the prime field"):
        Field(2)


def test_generator_search_walks_only_the_generator(monkeypatch):
    """Rejected candidates cost an order test each, not a walk to their order."""
    calls = 0
    mul_raw = Field._mul_raw

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return mul_raw(self, x, y)

    monkeypatch.setattr(Field, "_mul_raw", counted)
    f = Field(8)
    assert f.generator == 38
    assert calls <= f.q - 1 + 800


def test_field_build_tabulates_the_walk(monkeypatch):
    """The walk reads x * g off the products of g with the low and the high
    digits of x: 3^4 + 3^4 raw products at r = 8, plus the order tests."""
    calls = 0
    mul_raw = Field._mul_raw

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return mul_raw(self, x, y)

    monkeypatch.setattr(Field, "_mul_raw", counted)
    Field(8)
    assert calls <= 3**4 + 3**4 + 800


def test_generator_guards_are_config_errors(monkeypatch):
    # with no prime to test, 2 is taken as the generator and its walk stops at order 2
    with monkeypatch.context() as m:
        m.setattr(field_module, "_prime_factors", lambda n: [])
        with pytest.raises(FieldConfigError, match="does not define a field"):
            Field(2)
    # every candidate failing its order test
    monkeypatch.setattr(Field, "_pow_raw", lambda self, x, e: 1)
    with pytest.raises(FieldConfigError, match="no primitive element"):
        Field(2)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("second", [False, True])
def test_mul_and_inv_match_raw_products(r, second):
    f = Field(r, _second_modulus(r) if second else None)
    for x in f.elements():
        for y in f.elements():
            assert f.mul(x, y) == f._mul_raw(x, y)
    for x in f.units():
        assert f._mul_raw(x, f.inv(x)) == 1


@pytest.mark.parametrize("r", [5, 8])
@pytest.mark.parametrize("second", [False, True])
def test_mul_matches_raw_products_on_a_sample(r, second):
    f = Field(r, _second_modulus(r) if second else None)
    q = f.q
    rng = Random(r)
    pairs = [(0, 0), (0, q - 1), (q - 1, 0), (1, 0)]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for x, y in pairs:
        assert f.mul(x, y) == f._mul_raw(x, y)


# ---------------------------------------------------------------------------
# arithmetic


@pytest.mark.parametrize("r", [7, 8])
@pytest.mark.parametrize("second", [False, True])
def test_split_add_matches_digit_sums(r, second):
    f = Field(r, _second_modulus(r) if second else None)
    q, split = f.q, 3 ** ((r + 1) // 2)
    for x in (0, 1, split - 1, split, q - 1):
        for y in f.elements():
            assert f.add(x, y) == f._add_slow(x, y)
            assert f.add(y, x) == f._add_slow(y, x)
    rng = Random(r + 10 * second)
    for _ in range(20000):
        x, y = rng.randrange(q), rng.randrange(q)
        assert f.add(x, y) == f._add_slow(x, y)


@pytest.mark.parametrize("r", [7, 8])
@pytest.mark.parametrize("second", [False, True])
def test_row_view_matches_digit_sums(r, second):
    """Above q = 729 row x of the addition-table view adds x through the
    split table; a sample of rows and entries against the digit sums."""
    f = Field(r, _second_modulus(r) if second else None)
    q, split = f.q, 3 ** ((r + 1) // 2)
    rng = Random(r + 10 * second)
    for x in (0, 1, split - 1, split, q - 1, *(rng.randrange(q) for _ in range(20))):
        row = f._rows[x]
        for y in (0, 1, split - 1, split, q - 1, *(rng.randrange(q) for _ in range(1000))):
            assert row[y] == f._add_slow(x, y)


@pytest.mark.parametrize("r", [1, 6])
def test_rows_are_the_full_table_up_to_729(r):
    f = Field(r)
    assert f._rows is f._add_table


def test_add_above_729_reads_the_split_table(monkeypatch):
    f = Field(7)
    calls = 0

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return 0

    monkeypatch.setattr(Field, "_add_slow", counted)
    rng = Random(7)
    for _ in range(1000):
        f.add(rng.randrange(f.q), rng.randrange(f.q))
    assert calls == 0


def test_gf3_tables():
    f = Field(1)
    for x in range(3):
        for y in range(3):
            assert f.add(x, y) == (x + y) % 3
            assert f.mul(x, y) == (x * y) % 3
    assert f.inv(2) == 2
    assert f.neg(1) == 2


def test_gf9_basis_element():
    f = Field(2)
    t = 3  # the digits (0, 1)
    assert f.mul(t, t) == 2  # t^2 = -1
    assert f.mul(t, f.inv(t)) == 1


@pytest.mark.parametrize("r", [1, 2, 3])
def test_field_axioms_exhaustive(r):
    f = Field(r)
    xs = list(f.elements()) if f.q <= 9 else list(range(0, f.q, 2))
    for x in xs:
        assert f.add(x, f.neg(x)) == 0
        assert f.add(x, 0) == x
        assert f.mul(x, 1) == x
        for y in xs:
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            for z in xs[:6]:
                assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_gf27_associativity(x, y, z):
    f = Field(3)
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
    assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_unit_group_order(r):
    f = Field(r)
    for x in f.units():
        assert f.pow(x, f.q - 1) == 1
        assert f.mul(x, f.inv(x)) == 1


def test_inverse_of_zero():
    f = Field(2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_pow_edge_cases():
    f = Field(2)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    assert f.pow(5, 0) == 1


# ---------------------------------------------------------------------------
# trace


def test_trace_gf3_is_identity():
    f = Field(1)
    for x in range(3):
        assert f.trace(x) == x


def test_trace_gf9():
    f = Field(2)
    assert f.trace(3) == 0  # tr(t) = t + t^3 = t - t = 0 when t^2 = -1
    assert f.trace(1) == 2  # tr(1) = r * 1


@pytest.mark.parametrize("r", [1, 2, 3, 6])
def test_trace_fibers_and_frobenius(r):
    """Trace is onto GF(3) with equal fibers, and Frobenius-invariant."""
    f = Field(r)
    fibers = [0, 0, 0]
    for x in f.elements():
        tr = f.trace(x)
        assert tr in (0, 1, 2)
        assert tr == f.trace(f.pow(x, 3))
        fibers[tr] += 1
    assert fibers == [f.q // 3] * 3


def test_trace_is_additive():
    f = Field(3)
    for x in range(0, 27, 5):
        for y in range(27):
            assert f.trace(f.add(x, y)) == (f.trace(x) + f.trace(y)) % 3


# ---------------------------------------------------------------------------
# squares


@pytest.mark.parametrize("r", [1, 2, 3])
def test_square_counts(r):
    f = Field(r)
    squares = [x for x in f.units() if f.is_square(x)]
    assert len(squares) == (f.q - 1) // 2
    assert set(squares) == {f.mul(x, x) for x in f.units()}


@pytest.mark.parametrize("r", range(1, 6))
def test_is_square_matches_the_euler_criterion(r):
    f = Field(r)
    half = (f.q - 1) // 2
    for x in f.units():
        assert f.is_square(x) == (f.pow(x, half) == 1)


def test_square_multiplicativity():
    f = Field(2)
    for x in f.units():
        for y in f.units():
            assert f.is_square(f.mul(x, y)) == (f.is_square(x) == f.is_square(y))


def test_is_square_of_zero_rejected():
    with pytest.raises(ValueError):
        Field(2).is_square(0)


def test_minus_one_square_iff_q_1_mod_4():
    # -1 = 2 is a nonsquare at q=3,27 and a square at q=9
    assert not Field(1).is_square(2)
    assert Field(2).is_square(2)
    assert not Field(3).is_square(2)


# ---------------------------------------------------------------------------
# encoding


@pytest.mark.parametrize("r", [1, 2, 3])
def test_coeff_round_trip(r):
    """Each element is the base-3 number of its r digits, least significant first."""
    f = Field(r)
    for x in f.elements():
        digits = field_module._digits(x, r)
        assert len(digits) == r and set(digits) <= {0, 1, 2}
        assert sum(c * 3**k for k, c in enumerate(digits)) == x


def test_field_identity_semantics():
    assert Field(2) == Field(2)
    assert hash(Field(2)) == hash(Field(2))
    assert Field(2) != Field(2, (2, 1, 1))
    assert "q=9" in repr(Field(2))
