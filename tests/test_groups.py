from collections import Counter
from itertools import islice, product
from random import Random

import pytest
from conftest import CliRunner

import klc.cli as cli
from klc import groups
from klc.charsums import delta_table, kloosterman_all
from klc.codes import dual_weights
from klc.eisenstein import CycInt, additive_char
from klc.errors import UnsupportedScaleError, VerificationError
from klc.field import Field
from klc.groups import (
    GROUPS,
    brute_force_group,
    enumerate_group,
    gauss_sum_closed,
    gauss_sum_enumerated,
    group_order,
    is_orthogonal,
    is_special_orthogonal,
    is_symplectic,
    iter_group,
    mat_det,
    mat_mul,
    mat_trace,
    trace_spectrum,
    trace_spectrum_closed,
)

_ID3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_ID2 = ((1, 0), (0, 1))

# ---------------------------------------------------------------------------
# counting


def test_group_orders():
    assert group_order(3, "so3") == 24
    assert group_order(3, "o3") == 48
    assert group_order(3, "sp2") == 24
    assert group_order(9, "o3") == 2 * 9 * 80
    assert group_order(27, "sp2") == 27 * 728


def test_unknown_group_rejected():
    with pytest.raises(ValueError):
        group_order(3, "su2")
    with pytest.raises(ValueError):
        enumerate_group(Field(1), "gl3")


def test_group_names_are_not_case_folded():
    """Only the names in GROUPS are accepted, so an uppercase tag adds no
    second entry to a per-field cache."""
    f = Field(1)
    for cached in (enumerate_group, trace_spectrum, dual_weights):
        cached(f, "so3")
        size = cached.cache_info().currsize
        with pytest.raises(ValueError):
            cached(f, "SO3")
        assert cached.cache_info().currsize == size, cached.__name__


# ---------------------------------------------------------------------------
# matrix helpers


def test_mat_helpers():
    f = Field(1)
    a = ((1, 2, 0), (0, 1, 0), (0, 0, 1))
    b = ((1, 0, 0), (1, 1, 0), (0, 0, 2))
    ab = mat_mul(f, a, b)
    assert ab == ((0, 2, 0), (1, 1, 0), (0, 0, 2))
    assert mat_trace(f, ab) == 0
    assert mat_det(f, a) == 1
    assert mat_det(f, ((0, 1), (2, 0))) == 1


def _det_by_cofactors(field, x):
    """Cofactor expansion along the top row through Field.mul: the oracle
    for the log-domain mat_det."""
    add, sub, mul = field.add, field.sub, field.mul
    if len(x) == 2:
        return sub(mul(x[0][0], x[1][1]), mul(x[0][1], x[1][0]))
    (a, b, c), (d, e, f), (g, h, i) = x
    return add(sub(mul(a, sub(mul(e, i), mul(f, h))), mul(b, sub(mul(d, i), mul(f, g)))),
               mul(c, sub(mul(d, h), mul(e, g))))


@pytest.mark.parametrize("r, modulus", [(1, None), (1, [1, 1]), (2, None), (2, [2, 1, 1])],
                         ids=["r1", "r1-11", "r2", "r2-211"])
def test_mat_det_matches_cofactors_on_every_2x2(r, modulus):
    """mat_det, and is_symplectic with its determinant inline, against the
    cofactor oracle on every 2x2 matrix."""
    f = Field(r, modulus)
    members = 0
    for w in product(product(f.elements(), repeat=2), repeat=2):
        det = _det_by_cofactors(f, w)
        assert mat_det(f, w) == det, w
        assert is_symplectic(f, w) == (det == 1), w
        members += det == 1
    assert members == group_order(f.q, "sp2")


@pytest.mark.parametrize("r, modulus", [(2, None), (2, [2, 1, 1]), (3, None), (3, [1, 0, 2, 1])],
                         ids=["r2", "r2-211", "r3", "r3-1021"])
def test_mat_det_matches_cofactors_on_seeded_3x3(r, modulus):
    """2,000 seeded 3x3 matrices; every other one has a random set of its
    entries forced to zero, so products with a zero factor and zero
    cofactors are met."""
    f = Field(r, modulus)
    rng = Random(r)
    zeros = 0
    for k in range(2000):
        entries = [rng.randrange(f.q) for _ in range(9)]
        if k % 2:
            for j in rng.sample(range(9), rng.randrange(1, 9)):
                entries[j] = 0
        zeros += entries.count(0)
        w = (tuple(entries[0:3]), tuple(entries[3:6]), tuple(entries[6:9]))
        assert mat_det(f, w) == _det_by_cofactors(f, w), w
    assert zeros > 4000


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("gid", GROUPS)
@pytest.mark.parametrize("r", [1, 2])
def test_enumeration_count_and_uniqueness(r, gid):
    f = Field(r)
    elems = enumerate_group(f, gid)
    assert len(elems) == group_order(f.q, gid)
    assert len(set(elems)) == len(elems)
    ident = _ID2 if gid == "sp2" else _ID3
    assert ident in set(elems)


def test_canonical_order_is_stable():
    f = Field(1)
    for gid in GROUPS:
        assert list(iter_group(f, gid)) == list(enumerate_group(f, gid))
    assert enumerate_group(f, "so3")[0] == _ID3


@pytest.mark.parametrize("special", [False, True])
def test_orthogonal_matches_brute_force(special):
    """The cell-by-cell enumeration hits exactly the 3^9-filter answer."""
    f = Field(1)
    gid = "so3" if special else "o3"
    assert set(enumerate_group(f, gid)) == set(brute_force_group(f, gid))


def test_brute_force_only_at_q3():
    with pytest.raises(ValueError):
        brute_force_group(Field(2), "o3")


@pytest.mark.parametrize("gid", GROUPS)
def test_brute_force_group_matches_enumeration(gid):
    """The 3^9 (O(3), SO(3)) and 3^4 (Sp(2)) filters give the enumerated groups."""
    f = Field(1)
    assert sorted(brute_force_group(f, gid)) == sorted(enumerate_group(f, gid))
    with pytest.raises(ValueError):
        brute_force_group(Field(2), gid)


def _iter_by_products(field, gid):
    """The groups composed from their factors: u(A, h) sigma_rr v(h') by
    mat_mul and rho as a negated last row, and Sp(2, q) by scanning
    (a, b, c) and solving det = 1 for d.  The oracle for iter_group."""
    add, mul, inv, neg = field.add, field.mul, field.inv, field.neg
    if gid == "sp2":
        for a in field.elements():
            if a == 0:
                for b in field.units():
                    for d in field.elements():
                        yield ((0, b), (neg(inv(b)), d))
            else:
                for b in field.elements():
                    for c in field.elements():
                        yield ((a, b), (c, mul(inv(a), add(1, mul(b, c)))))
        return

    def u(a, h):
        return ((a, mul(a, mul(h, h)), neg(mul(a, h))), (0, inv(a), 0), (0, h, 1))

    sigma = (_ID3, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    cells = ([(0, False), (1, True)] if gid == "so3"
             else [(0, False), (1, False), (0, True), (1, True)])
    for rr, rho in cells:
        reps = [_ID3] if rr == 0 else [u(1, hp) for hp in field.elements()]
        for a in field.units():
            for h in field.elements():
                base = mat_mul(field, u(a, h), sigma[rr])
                for v in reps:
                    w = mat_mul(field, base, v)
                    yield (w[0], w[1], tuple(map(neg, w[2]))) if rho else w


@pytest.mark.parametrize("gid", GROUPS)
@pytest.mark.parametrize("r, modulus", [(1, None), (1, [1, 1]), (2, None), (2, [2, 1, 1]),
                                        (3, None), (3, [1, 0, 2, 1])],
                         ids=["r1", "r1-11", "r2", "r2-211", "r3", "r3-1021"])
def test_cells_match_the_products(r, modulus, gid):
    """The written-out cells give the composed elements, in the same order."""
    f = Field(r, modulus)
    assert list(iter_group(f, gid)) == list(_iter_by_products(f, gid))


def test_enumeration_multiplies_no_matrices(monkeypatch):
    calls = []

    def counting(field, x, y):
        calls.append(1)
        return mat_mul(field, x, y)

    monkeypatch.setattr(groups, "mat_mul", counting)
    f = Field(2)
    for gid in GROUPS:
        assert sum(1 for _ in iter_group(f, gid)) == group_order(f.q, gid)
    assert not calls


def test_enumeration_and_spectrum_call_no_field_addition(monkeypatch):
    """Writing out the cells, checking every element and histogramming the
    traces read the addition table's rows: not one Field.add or Field.sub
    call, where mat_mul, the oracle, still makes them."""
    f = Field(2)
    calls = []

    def counting(name):
        original = getattr(Field, name)

        def method(self, x, y):
            calls.append(name)
            return original(self, x, y)
        return method

    for name in ("add", "sub"):
        monkeypatch.setattr(Field, name, counting(name))
    enumerate_group.cache_clear()
    trace_spectrum.cache_clear()
    try:
        for gid in GROUPS:
            assert sum(trace_spectrum(f, gid)) == group_order(f.q, gid)
    finally:
        enumerate_group.cache_clear()
        trace_spectrum.cache_clear()
    assert not calls
    mat_mul(f, _ID2, _ID2)
    assert calls


@pytest.mark.parametrize("gid", GROUPS)
def test_predicates_reject_on_both_paths(gid, monkeypatch):
    """An element the group's _PREDICATES entry rejects is a construction bug
    on the streaming path (iter_group) and on the bulk path
    (enumerate_group), and the CLI reports it as exit 1 without a
    traceback."""
    monkeypatch.setitem(groups._PREDICATES, gid, lambda field, w: False)
    f = Field(1)
    enumerate_group.cache_clear()
    try:
        with pytest.raises(VerificationError, match="construction bug"):
            next(iter_group(f, gid))
        with pytest.raises(VerificationError, match="construction bug"):
            enumerate_group(f, gid)
        result = CliRunner().invoke(cli.main, ["group", "enumerate", "--group", gid])
    finally:
        enumerate_group.cache_clear()
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("gid", GROUPS)
def test_a_corrupted_cell_is_caught(gid, monkeypatch):
    """One entry of one element changed late in the stream is a construction
    bug.  The changed row is new and the element's other rows are the
    shared ones, by reference, each already yielded with an earlier
    element, so a check skipped for a row seen before would let it through."""
    f = Field(2)
    cells = groups._iter_cells

    def corrupted(row, at, members):
        def stream(field, g):
            for k, w in enumerate(cells(field, g)):
                if k == at:
                    bad = (field.add(w[row][0], 1),) + w[row][1:]
                    w = w[:row] + (bad,) + w[row + 1:]
                    assert w not in members
                yield w
        return stream

    members = set(enumerate_group(f, gid))
    for row in range(2 if gid == "sp2" else 3):
        monkeypatch.setattr(groups, "_iter_cells",
                            corrupted(row, group_order(f.q, gid) - 2, members))
        enumerate_group.cache_clear()
        try:
            with pytest.raises(VerificationError, match="construction bug"):
                if gid == "o3":
                    list(iter_group(f, gid))
                else:
                    enumerate_group(f, gid)
        finally:
            enumerate_group.cache_clear()
    if gid == "o3":
        # enumerate_group takes O(3, q) from SO(3, q): a corrupted SO(3, q)
        # element fails a cold O(3, q) enumeration
        members = set(enumerate_group(f, "so3"))
        for row in range(3):
            monkeypatch.setattr(groups, "_iter_cells",
                                corrupted(row, group_order(f.q, "so3") - 2, members))
            enumerate_group.cache_clear()
            try:
                with pytest.raises(VerificationError, match="construction bug"):
                    enumerate_group(f, "o3")
            finally:
                enumerate_group.cache_clear()


def _drop_last(elems):
    return elems[:-1]


def _repeat_first(elems):
    return elems[:-1] + [elems[0]]


@pytest.mark.parametrize("gid", GROUPS)
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("change, message", [(_drop_last, "order says"),
                                             (_repeat_first, "duplicates")],
                         ids=["one-short", "one-repeated"])
def test_enumeration_is_the_whole_group(change, message, r, gid, monkeypatch):
    """A set of |G| distinct members of G is G, so it is closed under
    products; no product is checked.  Both premises are enumerate_group's
    own checks: a stream of members one short, or with one member in place
    of another, must fail them.  o3 is enumerated cold, from the changed
    so3 stream."""
    cells = groups._iter_cells
    monkeypatch.setattr(groups, "_iter_cells",
                        lambda field, g: iter(change(list(cells(field, g)))))
    enumerate_group.cache_clear()
    try:
        with pytest.raises(VerificationError, match=message):
            enumerate_group(Field(r), gid)
    finally:
        enumerate_group.cache_clear()


@pytest.mark.parametrize("r, modulus", [(1, None), (1, [1, 1]), (2, None), (2, [2, 1, 1]),
                                        (3, None), (3, [1, 0, 2, 1])],
                         ids=["r1", "r1-11", "r2", "r2-211", "r3", "r3-1021"])
def test_o3_from_so3_matches_the_stream(r, modulus):
    """O(3, q) taken from SO(3, q) and its rho-image is the checked stream,
    in the same order, and every element is orthogonal."""
    f = Field(r, modulus)
    enumerate_group.cache_clear()
    try:
        elems = enumerate_group(f, "o3")
    finally:
        enumerate_group.cache_clear()
    assert elems == tuple(iter_group(f, "o3"))
    assert all(is_orthogonal(f, w) for w in elems)


def test_o3_enumeration_walks_and_checks_only_so3(monkeypatch):
    """With SO(3, q) cached, enumerating O(3, q) walks no cells and checks
    one element, rho; a cold O(3, q) enumeration walks only the so3 cells."""
    f = Field(2)
    walks, checks = [], []
    cells, is_o3 = groups._iter_cells, groups._PREDICATES["o3"]

    def counting_cells(field, gid):
        walks.append(gid)
        return cells(field, gid)

    def counting_o3(field, w):
        checks.append(w)
        return is_o3(field, w)

    monkeypatch.setattr(groups, "_iter_cells", counting_cells)
    monkeypatch.setitem(groups._PREDICATES, "o3", counting_o3)
    enumerate_group.cache_clear()
    try:
        enumerate_group(f, "so3")
        walks.clear()
        assert len(enumerate_group(f, "o3")) == group_order(f.q, "o3")
        assert walks == [] and len(checks) == 1
        enumerate_group.cache_clear()
        enumerate_group(f, "o3")
        assert walks == ["so3"]
    finally:
        enumerate_group.cache_clear()


@pytest.mark.parametrize("r", [1, 2])
def test_symplectic_is_det_one(r):
    f = Field(r)
    got = set(enumerate_group(f, "sp2"))
    expected = set()
    for a in f.elements():
        for b in f.elements():
            for c in f.elements():
                for d in f.elements():
                    w = ((a, b), (c, d))
                    if mat_det(f, w) == 1:
                        expected.add(w)
    assert got == expected


def test_membership_predicates_agree():
    f = Field(1)
    so3 = set(enumerate_group(f, "so3"))
    o3 = set(enumerate_group(f, "o3"))
    assert so3 < o3
    assert all(is_orthogonal(f, w) for w in o3)
    assert so3 == {w for w in o3 if mat_det(f, w) == 1}
    assert all(is_special_orthogonal(f, w) for w in so3)
    assert all(is_symplectic(f, w) for w in enumerate_group(f, "sp2"))


_J = ((0, 1, 0), (1, 0, 0), (0, 0, 1))


def _orthogonal_by_definition(field, w):
    """w^T J w == J by matrix products: the oracle for is_orthogonal."""
    return mat_mul(field, mat_mul(field, tuple(zip(*w)), _J), w) == _J


def _special_by_parts(field, w, cases):
    """is_special_orthogonal(w) against is_orthogonal(w) and mat_det(w) == 1,
    counted in cases by which cofactor of is_special_orthogonal decides it:
    the one at e, or at d when e = 0.  With e = d = 0 the six equations
    reject w, since f^2 = d e would leave the middle row zero."""
    (_, (d, e, _), _) = w
    orthogonal = is_orthogonal(field, w)
    special = orthogonal and mat_det(field, w) == 1
    assert is_special_orthogonal(field, w) == special, w
    cases["e" if e else "d" if d else "e = d = 0", orthogonal, special] += 1


def _assert_every_cofactor_case(cases):
    """Each cofactor decided members of both determinants, and matrices
    with e = d = 0 were tried and all rejected."""
    for case in ("e", "d"):
        assert cases[case, True, True] > 0 and cases[case, True, False] > 0, case
    assert cases["e = d = 0", False, False] > 0
    assert cases["e = d = 0", True, True] == cases["e = d = 0", True, False] == 0


def test_is_orthogonal_matches_the_definition_on_every_matrix_at_q3():
    """is_orthogonal against w^T J w == J, and the fused
    is_special_orthogonal against its parts, is_orthogonal and mat_det, and
    against the by-products definitions, on all 3^9 matrices, with every
    cofactor case taken."""
    f = Field(1)
    rows = list(product(range(3), repeat=3))
    members = special = 0
    cases = Counter()
    for w in product(rows, repeat=3):
        verdict = is_orthogonal(f, w)
        assert verdict == _orthogonal_by_definition(f, w), w
        fused = is_special_orthogonal(f, w)
        assert fused == (verdict and _det_by_cofactors(f, w) == 1), w
        _special_by_parts(f, w, cases)
        members += verdict
        special += fused
    assert members == group_order(3, "o3")
    assert special == group_order(3, "so3")
    _assert_every_cofactor_case(cases)


@pytest.mark.parametrize("r, modulus", [(2, None), (2, [2, 1, 1]), (3, None), (3, [1, 0, 2, 1])],
                         ids=["r2", "r2-211", "r3", "r3-1021"])
def test_is_orthogonal_matches_the_definition_near_the_group(r, modulus):
    """Every element of O(3, q), its rho cells included, and one-entry
    perturbations of a seeded sample of them, get the verdict of
    w^T J w == J, and is_special_orthogonal agrees with is_orthogonal and
    mat_det on all of them and on each element with e = 0 whose d is set
    to 0, with every cofactor case taken."""
    f = Field(r, modulus)
    elems = list(groups._iter_cells(f, "o3"))
    cases = Counter()
    for w in elems:
        assert is_orthogonal(f, w) and _orthogonal_by_definition(f, w), w
        _special_by_parts(f, w, cases)
        top, (_, e, mid_f), low = w
        if not e:
            _special_by_parts(f, (top, (0, 0, mid_f), low), cases)
    rng = Random(r)
    for _ in range(3000):
        rows = [list(row) for row in elems[rng.randrange(len(elems))]]
        i, j = rng.randrange(3), rng.randrange(3)
        rows[i][j] = (rows[i][j] + rng.randrange(1, f.q)) % f.q
        w = tuple(map(tuple, rows))
        assert is_orthogonal(f, w) == _orthogonal_by_definition(f, w), w
        _special_by_parts(f, w, cases)
    _assert_every_cofactor_case(cases)


_JHAT = ((0, 1), (2, 0))  # [[0, 1], [-1, 0]]; -1 is encoded as 2


def _symplectic_by_definition(field, w):
    """w^T Jhat w == Jhat by matrix products: the oracle for is_symplectic."""
    return mat_mul(field, mat_mul(field, tuple(zip(*w)), _JHAT), w) == _JHAT


def _trace_by_definition(field, w):
    """The diagonal summed by Field.add: the oracle for mat_trace."""
    acc = 0
    for i in range(len(w)):
        acc = field.add(acc, w[i][i])
    return acc


def _near_the_group(field, elems, n, seed):
    """n seeded elements, each followed by a copy with one entry changed."""
    rng = Random(seed)
    for _ in range(n):
        w = elems[rng.randrange(len(elems))]
        yield w
        rows = [list(row) for row in w]
        i, j = rng.randrange(len(w)), rng.randrange(len(w))
        rows[i][j] = (rows[i][j] + rng.randrange(1, field.q)) % field.q
        yield tuple(map(tuple, rows))


def _check_against_the_definitions(field, w):
    """The table-read trace, determinant and membership predicates of w
    against their oracles through Field.add and Field.mul."""
    det = _det_by_cofactors(field, w)
    assert mat_trace(field, w) == _trace_by_definition(field, w), w
    assert mat_det(field, w) == det, w
    if len(w) == 2:
        assert is_symplectic(field, w) == _symplectic_by_definition(field, w), w
    else:
        orthogonal = _orthogonal_by_definition(field, w)
        fused = is_special_orthogonal(field, w)
        assert is_orthogonal(field, w) == orthogonal, w
        assert fused == (orthogonal and det == 1), w
        assert fused == (is_orthogonal(field, w) and mat_det(field, w) == 1), w


@pytest.mark.parametrize("gid", GROUPS)
@pytest.mark.parametrize("r, modulus", [(1, None), (1, [1, 1]), (2, None), (2, [2, 1, 1]),
                                        (3, None), (3, [1, 0, 2, 1])],
                         ids=["r1", "r1-11", "r2", "r2-211", "r3", "r3-1021"])
def test_table_reads_match_the_definitions(r, modulus, gid):
    """Seeded elements and one-entry perturbations get the oracles' trace,
    determinant and verdicts, and the trace histogram is the per-element
    trace summed through Field.add."""
    f = Field(r, modulus)
    elems = enumerate_group(f, gid)
    for w in _near_the_group(f, elems, 500, r):
        _check_against_the_definitions(f, w)
    counts = [0] * f.q
    for w in elems:
        counts[_trace_by_definition(f, w)] += 1
    assert trace_spectrum(f, gid) == tuple(counts)


@pytest.mark.parametrize("gid", GROUPS)
@pytest.mark.parametrize("r, modulus", [(7, None), (7, [1, 2, 1, 0, 0, 0, 0, 1]),
                                        (8, None), (8, [2, 0, 2, 0, 0, 0, 0, 0, 1])],
                         ids=["r7", "r7-12100001", "r8", "r8-202000001"])
def test_table_reads_match_the_definitions_above_729(r, modulus, gid):
    """Above q = 729 the rows are a view through the split table: the first
    streamed elements and one-entry perturbations of them get the oracles'
    trace, determinant and verdicts."""
    f = Field(r, modulus)
    head = list(islice(iter_group(f, gid), 100))
    for w in _near_the_group(f, head, 300, r):
        _check_against_the_definitions(f, w)


def test_group_closed_under_inverse():
    f = Field(1)
    for gid in GROUPS:
        elems = set(enumerate_group(f, gid))
        ident = _ID2 if gid == "sp2" else _ID3
        for w in elems:
            assert any(mat_mul(f, w, v) == ident for v in elems)


def test_streaming_beyond_materialization_cap():
    f = Field(4)  # q = 81
    with pytest.raises(UnsupportedScaleError):
        enumerate_group(f, "so3")
    head = list(islice(iter_group(f, "so3"), 50))
    assert len(head) == 50
    assert all(is_special_orthogonal(f, w) for w in head)


@pytest.mark.parametrize("gid", GROUPS)
def test_streaming_at_the_top_of_the_range(gid):
    """The first elements at q = 6561 stream, pass the group's predicate
    and are the composed elements."""
    f = Field(8)
    head = list(islice(iter_group(f, gid), 50))
    assert len(head) == 50
    assert all(groups._PREDICATES[gid](f, w) for w in head)
    assert head == list(islice(_iter_by_products(f, gid), 50))


# ---------------------------------------------------------------------------
# trace spectra


def test_trace_spectrum_q3_anchors():
    f = Field(1)
    assert trace_spectrum(f, "so3") == (9, 6, 9)
    assert trace_spectrum(f, "o3") == (18, 15, 15)
    assert trace_spectrum(f, "sp2") == (6, 9, 9)


@pytest.mark.parametrize("gid", GROUPS)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_closed_spectrum_matches_enumeration(r, gid):
    f = Field(r)
    enumerated = trace_spectrum(f, gid)
    assert enumerated == trace_spectrum_closed(f, gid)
    assert all(n > 0 for n in enumerated)
    assert sum(enumerated) == group_order(f.q, gid)


@pytest.mark.parametrize("r,modulus", [(r, None) for r in range(1, 9)]
                         + [(3, (1, 0, 2, 1)), (7, (1, 2, 1, 0, 0, 0, 0, 1))],
                         ids=[f"r{r}" for r in range(1, 9)] + ["r3-1021", "r7-12100001"])
def test_closed_spectra_above_enumeration_bound(r, modulus):
    """The closed spectra stay available past the materialization cap (q = 27):
    each sums to the group order with every trace hit, and
    N_o3(beta) = N_so3(beta) + N_so3(-beta) since O(3, q) = SO(3, q) x {+-I}
    and Tr(-w) = -Tr w."""
    f = Field(r, modulus)
    spec = {gid: trace_spectrum_closed(f, gid) for gid in GROUPS}
    for gid, counts in spec.items():
        assert sum(counts) == group_order(f.q, gid)
        assert min(counts) > 0
    so3 = spec["so3"]
    assert spec["o3"] == tuple(so3[b] + so3[f.neg(b)] for b in f.elements())


@pytest.mark.parametrize("modulus", [None, (1, 2, 1, 0, 0, 0, 0, 1)], ids=["r7", "r7-12100001"])
def test_closed_spectra_above_729_match_digit_sums(modulus):
    """At q = 2187 the closed spectra read the split-table rows of 1 and -1;
    each count against its formula at beta - 1 and beta + 1 formed by the
    digit-sum adder."""
    f = Field(7, modulus)
    q, d1 = f.q, delta_table(f, 1)
    down = [d1[f._add_slow(beta, f.neg(1))] for beta in f.elements()]
    up = [d1[f._add_slow(beta, 1)] for beta in f.elements()]
    assert trace_spectrum_closed(f, "so3") == tuple(q * q - q + q * n for n in down)
    assert trace_spectrum_closed(f, "o3") == tuple(
        2 * q * q - 2 * q + q * n + q * m for n, m in zip(down, up))
    assert trace_spectrum_closed(f, "sp2") == tuple(q * q - q + q * n for n in d1)


# ---------------------------------------------------------------------------
# exponential sums over the groups


def test_gauss_sum_q3_anchors():
    f = Field(1)
    assert gauss_sum_enumerated(f, "so3", 1) == CycInt(0, -3)
    assert gauss_sum_enumerated(f, "o3", 1) == CycInt(3, 0)
    assert gauss_sum_enumerated(f, "sp2", 1) == CycInt(-3, 0)


@pytest.mark.parametrize("gid", GROUPS)
@pytest.mark.parametrize("r", [1, 2])
def test_gauss_sum_closed_form(r, gid):
    f = Field(r)
    for a in f.units():
        closed = gauss_sum_closed(f, gid, a)
        assert gauss_sum_enumerated(f, gid, a) == closed
        if gid == "o3":
            assert closed.is_real()
        if gid == "sp2":
            assert closed == CycInt(f.q * kloosterman_all(f)[f.mul(a, a)], 0)


def test_gauss_sum_rejects_zero():
    for a in (0, 3, 5):
        with pytest.raises(ValueError, match="a must be a unit of GF"):
            gauss_sum_closed(Field(1), "so3", a)
    for a in (3, 5):
        with pytest.raises(ValueError):
            gauss_sum_enumerated(Field(1), "so3", a)


@pytest.mark.parametrize("gid", GROUPS)
@pytest.mark.parametrize("r", [1, 2])
def test_spectrum_gauss_duality(r, gid):
    """Fourier inversion: q N(beta) = |G| + sum_a lambda(-a beta) G(a), exactly."""
    f = Field(r)
    spec = trace_spectrum(f, gid)
    order = group_order(f.q, gid)
    for beta in f.elements():
        acc = CycInt(order, 0)
        for a in f.units():
            acc = acc + additive_char(f, f.neg(f.mul(a, beta))) * gauss_sum_closed(f, gid, a)
        assert acc == CycInt(f.q * spec[beta], 0)


def test_gauss_sum_enumerated_at_zero_and_outside_the_field():
    """G(0) is the group order; a outside GF(q) is refused."""
    f = Field(1)
    for gid in GROUPS:
        assert gauss_sum_enumerated(f, gid, 0) == CycInt(group_order(f.q, gid), 0)
    for a in (-1, 3):
        with pytest.raises(ValueError):
            gauss_sum_enumerated(f, "so3", a)
