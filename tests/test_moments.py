from fractions import Fraction

import pytest

import klc.moments as moments
from klc.codes import weight_distribution_dp
from klc.errors import UnsupportedScaleError
from klc.field import Field
from klc.moments import (
    corollary_n,
    theorem_a1,
    theorem_a2,
    theorem_l,
    truncated_counts,
)

# ---------------------------------------------------------------------------
# closed forms for the first moments


def test_corollary_n_q3():
    reports = corollary_n(Field(1))
    assert [rep.family for rep in reports] == ["SK", "T0SK", "T12SK"]
    assert [rep.lhs for rep in reports] == [Fraction(-1), Fraction(0), Fraction(-2)]
    assert all(rep.equal for rep in reports)


def test_corollary_n_alternates_with_r():
    by_q = {}
    for r in (1, 2, 3):
        reports = corollary_n(Field(r))
        assert all(rep.equal for rep in reports)
        by_q[3**r] = [rep.lhs for rep in reports]
    assert by_q[9] == [5, 4, 6]
    assert by_q[27] == [-13, -8, -18]


# ---------------------------------------------------------------------------
# the recursions


Q3_MODULI = (None, [2, 1])


def test_theorem_a1_q3():
    for modulus in Q3_MODULI:
        reports = theorem_a1(Field(1, modulus), 8)
        assert len(reports) == 8
        assert all(rep.equal for rep in reports)
        assert [rep.h for rep in reports] == list(range(1, 9))
        # spot-check one height by hand: lhs = (1 + 1/2) T12SK^1 = 3/2 * (-2)
        assert reports[0].lhs == Fraction(-3)


def test_theorem_a2_q3():
    for modulus in Q3_MODULI:
        reports = theorem_a2(Field(1, modulus), 8)
        assert all(rep.equal for rep in reports)
        assert all(rep.note == "exponent base s read as 2" for rep in reports)


def test_theorem_l_q3():
    for modulus in Q3_MODULI:
        reports = theorem_l(Field(1, modulus), 8)
        assert all(rep.equal for rep in reports)
        assert all(rep.note is None for rep in reports)


@pytest.mark.parametrize("checker", [theorem_a1, theorem_a2, theorem_l])
def test_recursions_q9(checker):
    for modulus in (None, [2, 1, 1]):
        reports = checker(Field(2, modulus), 4)
        assert all(rep.equal for rep in reports), modulus
        assert all(rep.q == 9 for rep in reports)


def test_theorem_a1_q27_truncated():
    reports = theorem_a1(Field(3), 3)
    assert all(rep.equal for rep in reports)


@pytest.mark.parametrize("r,modulus", [(1, None), (2, None), (2, (2, 1, 1)), (3, None)])
def test_right_sides_read_no_moment(r, modulus, monkeypatch):
    """With every moment off by one, each right side is unchanged and every
    row fails: the right sides run forward from the weight counts alone."""
    f = Field(r) if modulus is None else Field(r, modulus=modulus)
    checkers = (theorem_a1, theorem_a2, theorem_l)
    honest = [[rep.rhs for rep in checker(f, 6)] for checker in checkers]
    table = moments.moment_table

    def off_by_one(field, hmax):
        return {fam: tuple(v + 1 for v in sums) for fam, sums in table(field, hmax).items()}

    monkeypatch.setattr(moments, "moment_table", off_by_one)
    for checker, rights in zip(checkers, honest):
        reports = checker(f, 6)
        assert [rep.rhs for rep in reports] == rights, checker.__name__
        assert not any(rep.equal for rep in reports), checker.__name__


@pytest.mark.parametrize("checker,tag", [(theorem_a1, "so3"), (theorem_a2, "o3"),
                                         (theorem_l, "sp2")])
def test_a_failing_row_carries_on_to_every_later_row(checker, tag, monkeypatch):
    """A count off by one at C_3 leaves rows 1 and 2 equal and fails every
    row from h = 3 on."""
    counts = moments.truncated_counts

    def bumped(field, code, j_max):
        out = list(counts(field, code, j_max))
        out[3] += code == tag
        return out

    monkeypatch.setattr(moments, "truncated_counts", bumped)
    assert [rep.equal for rep in checker(Field(2), 6)] == [True, True] + [False] * 4


def test_lhs_and_rhs_are_fractions_with_small_denominators():
    for rep in theorem_a1(Field(1), 6):
        assert isinstance(rep.lhs, Fraction)
        assert (2 ** rep.h) % rep.lhs.denominator == 0
        assert rep.lhs == rep.rhs


def test_hmax_guards():
    f = Field(1)
    for checker in (theorem_a1, theorem_a2, theorem_l):
        with pytest.raises(UnsupportedScaleError):
            checker(f, 0)
        with pytest.raises(UnsupportedScaleError):
            checker(f, 17)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_rows():
    rep = theorem_a1(Field(1), 2)[1]
    row = rep.row()
    assert row["theorem"] == "theorem-a1"
    assert row["q"] == 3 and row["h"] == 2
    assert "/" in row["lhs"] and "/" in row["rhs"]
    assert row["equal"] is True
    assert len(row["inputs_digest"]) == 12
    crow = corollary_n(Field(1))[0].row()
    assert crow["family"] == "SK"
    arow = theorem_a2(Field(1), 1)[0].row()
    assert "note" in arow


def test_digests_identify_input_spectra():
    a1 = theorem_a1(Field(1), 4)
    a2 = theorem_a2(Field(1), 4)
    assert len({rep.inputs_digest for rep in a1}) == 1
    assert a1[0].inputs_digest != a2[0].inputs_digest
    assert theorem_a1(Field(1), 4)[0].inputs_digest == a1[0].inputs_digest


def test_truncated_counts_prefix_coherence():
    f = Field(2)
    short = truncated_counts(f, "o3", 3)
    longer = truncated_counts(f, "o3", 6)
    assert longer[:4] == short
    direct = weight_distribution_dp(f, "o3", truncate_at=6).counts
    assert tuple(longer) == direct
    # asking for a shorter prefix later must not lose the cached tail
    again = truncated_counts(f, "o3", 2)
    assert again == short[:3]
