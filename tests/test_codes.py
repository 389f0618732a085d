import ast
from math import comb
from operator import mul
from pathlib import Path
from random import Random

import pytest

import klc.codes as codes
from klc.codes import (
    code_length,
    dual_codeword,
    dual_spectrum,
    dual_weight_formula,
    dual_weights,
    pless_check,
    pless_sum,
    stirling2,
    weight_distribution_dp,
    weight_distribution_macwilliams,
)
from klc.errors import UnsupportedScaleError, VerificationError
from klc.field import Field, _unpack
from klc.groups import GROUPS, trace_spectrum, trace_spectrum_closed

# ---------------------------------------------------------------------------
# shape


def test_lengths_and_dimensions():
    f3, f9 = Field(1), Field(2)
    assert code_length(3, "so3") == 24
    assert code_length(3, "o3") == 48
    assert code_length(9, "sp2") == 720
    assert code_length(f3.q, "so3") - f3.r == 23  # the dimension, N - r
    assert code_length(f9.q, "o3") - f9.r == 1440 - 2
    with pytest.raises(ValueError):
        code_length(3, "u3")


@pytest.mark.parametrize("tag", GROUPS)
@pytest.mark.parametrize("r", [1, 2])
def test_trace_counts_partition_positions(r, tag):
    f = Field(r)
    counts = trace_spectrum_closed(f, tag)
    assert sum(counts) == code_length(f.q, tag)
    assert counts == trace_spectrum(f, tag)


# ---------------------------------------------------------------------------
# the dual code


def test_dual_codeword_basics():
    f = Field(1)
    assert dual_codeword(f, "so3", 0) == (0,) * 24
    w1 = dual_codeword(f, "so3", 1)
    assert sum(1 for c in w1 if c) == 15
    # at r = 1 the trace is the identity, so c(2) = 2 c(1)
    assert dual_codeword(f, "so3", 2) == tuple((2 * c) % 3 for c in w1)
    with pytest.raises(ValueError):
        dual_codeword(f, "so3", 3)


@pytest.mark.parametrize("tag", GROUPS)
@pytest.mark.parametrize("r", [1, 2])
def test_dual_words_are_distinct(r, tag):
    """The map a -> c(a) is injective, so the dual code has dimension r."""
    f = Field(r)
    words = {dual_codeword(f, tag, a) for a in f.elements()}
    assert len(words) == f.q


@pytest.mark.parametrize("tag", ["so3", "o3"])
@pytest.mark.parametrize("r", [1, 2])
def test_dual_weight_formula_matches_count(r, tag):
    f = Field(r)
    weights = dual_weights(f, tag)
    assert weights[0] == 0
    for a in f.units():
        assert dual_weight_formula(f, tag, a) == weights[a]


@pytest.mark.parametrize("tag", GROUPS)
@pytest.mark.parametrize("r,modulus", [(1, None), (1, (1, 1)), (2, None), (2, (2, 1, 1)),
                                       (3, None), (3, (2, 2, 0, 1))])
def test_dual_weights_match_materialized_words(r, modulus, tag):
    """The trace-histogram weights equal the weights of the oracle words c(a)."""
    f = Field(r, modulus)
    weights = dual_weights(f, tag)
    assert len(weights) == f.q
    for a in f.elements():
        assert weights[a] == sum(1 for c in dual_codeword(f, tag, a) if c), a


def test_dual_weight_formula_guards():
    f = Field(1)
    with pytest.raises(ValueError):
        dual_weight_formula(f, "sp2", 1)
    with pytest.raises(ValueError):
        dual_weight_formula(f, "so3", 0)


def test_dual_spectra_q3():
    f = Field(1)
    assert dual_spectrum(f, "so3") == {0: 1, 15: 2}
    assert dual_spectrum(f, "o3") == {0: 1, 30: 2}
    assert dual_spectrum(f, "sp2") == {0: 1, 18: 2}


# ---------------------------------------------------------------------------
# Stirling numbers


def _partitions_into(h, t):
    """Count set partitions of {1..h} into exactly t blocks by growing
    restricted-growth strings; an oracle independent of the alternating sum."""
    def grow(i, used):
        if i == h:
            return 1 if used == t else 0
        total = grow(i + 1, used + 1)  # open a new block
        total += used * grow(i + 1, used)  # join an existing one
        return total

    return grow(0, 0)


def test_stirling2_values():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(3, 5) == 0
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_stirling2_against_partition_count():
    for h in range(7):
        for t in range(h + 1):
            assert stirling2(h, t) == _partitions_into(h, t)


def test_stirling2_recurrence():
    for h in range(1, 10):
        for t in range(1, h + 1):
            assert stirling2(h, t) == t * stirling2(h - 1, t) + stirling2(h - 1, t - 1)


# ---------------------------------------------------------------------------
# weight distributions


def test_dp_anchors_q3():
    f = Field(1)
    c_so3 = weight_distribution_dp(f, "so3").counts
    c_o3 = weight_distribution_dp(f, "o3").counts
    c_sp2 = weight_distribution_dp(f, "sp2").counts
    assert c_so3[0] == 1 and c_so3[1] == 18 and c_so3[2] == 354
    assert c_o3[0] == 1 and c_o3[1] == 36
    assert c_sp2[1] == 12 and c_sp2[2] == 366


@pytest.mark.parametrize("tag", GROUPS)
def test_dp_matches_macwilliams_q3(tag):
    for modulus in (None, (1, 1), (2, 1)):
        f = Field(1, modulus)
        dp = weight_distribution_dp(f, tag)
        mw = weight_distribution_macwilliams(f, tag)
        assert dp.counts == mw.counts
        n = code_length(3, tag)
        assert len(dp.counts) == n + 1
        assert sum(dp.counts) == 3 ** (n - 1)


@pytest.mark.parametrize("tag", GROUPS)
def test_dp_matches_macwilliams_q9(tag, q9_dists):
    dp = q9_dists[(tag, "dp")]
    mw = q9_dists[(tag, "mw")]
    assert dp == mw
    n = code_length(9, tag)
    assert sum(dp) == 3 ** (n - 2)
    assert dp[0] == 1 and dp[-1] >= 0


@pytest.mark.parametrize("tag", GROUPS)
def test_dp_matches_macwilliams_q9_other_modulus(tag):
    f = Field(2, (2, 1, 1))
    assert weight_distribution_dp(f, tag).counts == \
        weight_distribution_macwilliams(f, tag).counts


def test_krawtchouk_rows_match_the_expansion():
    """Coefficients of (1 + 2y)^(n - x) (1 - y)^x, expanded term by term."""
    for n in range(9):
        for x in range(n + 1):
            direct = [sum((-1) ** i * comb(x, i) * 2 ** (k - i) * comb(n - x, k - i)
                          for i in range(k + 1)) for k in range(n + 1)]
            assert codes._krawtchouk_row(n, x) == direct, (n, x)


def test_macwilliams_inexact_division_is_a_verification_error(monkeypatch):
    """A dual spectrum that is not one of a linear code leaves a remainder mod q."""
    f = Field(1)
    monkeypatch.setattr(codes, "dual_spectrum", lambda field, tag: {0: 1, 15: 1})
    with pytest.raises(VerificationError):
        weight_distribution_macwilliams(f, "so3")


def _site_rows_by_multinomials(n, cap):
    """The rows by summing every multinomial C(n; nu, mu) into its bucket."""
    top = min(n, cap)
    rows = [[0] * (top + 1) for _ in range(3)]
    for nu in range(top + 1):
        for mu in range(top - nu + 1):
            if nu + mu <= n:
                rows[(nu - mu) % 3][nu + mu] += comb(n, nu) * comb(n - nu, mu)
    return rows


def test_site_rows_match_the_multinomial_sum():
    for n in range(41):
        for cap in sorted({0, 1, 5, n, n + 3}):
            r0, r1, r2 = _site_rows_by_multinomials(n, cap)
            assert r1 == r2
            assert codes._site_rows(n, cap) == (r0, r1)


def _conv_acc(target, col, poly, cap):
    """target += col * poly as lists of coefficients, dropping degrees above cap."""
    for w, c in enumerate(col):
        if not c:
            continue
        end = min(w + len(poly), cap + 1)
        target[w:end] = [t + c * p for t, p in zip(target[w:end], poly)]


def _dp_unfolded(field, tag, cap):
    """The DP over all q classes and all q columns, with no symmetry used.
    It reads the spectrum through codes, so a patched spectrum feeds both."""
    q, add = field.q, field.add
    counts_beta = codes.trace_spectrum_closed(field, tag)
    state = [[0] for _ in range(q)]
    state[0][0] = 1
    width = 0
    for beta in field.elements():
        stay, move = codes._site_rows(counts_beta[beta], cap)
        width = min(cap, width + len(stay) - 1)
        minus = field.neg(beta)
        new = []
        for s in range(q):
            col = [0] * (width + 1)
            _conv_acc(col, state[s], stay, width)
            _conv_acc(col, [x + y for x, y in zip(state[add(s, minus)], state[add(s, beta)])],
                      move, width)
            new.append(col)
        state = new
    return tuple(state[0])


@pytest.mark.parametrize("tag", GROUPS)
@pytest.mark.parametrize("r, modulus, cap", [
    (1, None, None), (1, (1, 1), None), (1, (2, 1), None),
    (3, None, 8), (3, (1, 0, 2, 1), 8), (4, None, 6), (4, (1, 0, 1, 1, 1), 6),
    (2, None, 12), (2, (2, 1, 1), 12),
])
def test_dp_matches_the_unfolded_dp(r, modulus, cap, tag):
    f = Field(r, modulus)
    counts = weight_distribution_dp(f, tag, truncate_at=cap).counts
    assert counts == _dp_unfolded(f, tag, code_length(f.q, tag) if cap is None else cap)


@pytest.mark.parametrize("modulus, tag", [
    pytest.param(None, "so3", id="None-so3"),
    pytest.param((1, 0, 0, 0, 2, 1), "so3", id="modulus1-so3"),
    pytest.param(None, "sp2", id="None-sp2"),
    pytest.param((1, 0, 0, 0, 2, 1), "sp2", id="modulus1-sp2"),
    pytest.param(None, "o3", id="None-o3"),
])
def test_dp_matches_the_unfolded_dp_at_q243(modulus, tag):
    """The real spectra at r = 5 split their 120 pairs other than {+-1} into
    at most four sizes, so each group holds dozens of classes, pulled as a
    polynomial in their summed shift over 26 orbit columns."""
    f = Field(5, modulus)
    assert weight_distribution_dp(f, tag, truncate_at=6).counts == _dp_unfolded(f, tag, 6)


def _pair_spectrum(field, size):
    """A trace spectrum with size(s) positions at each rep s of a pair {s, -s}
    and none at -s, so that class s holds size(s) positions."""
    return tuple(size(s) if s <= field.neg(s) else 0 for s in field.elements())


_GROUPED_SPECTRA = {
    # every nonzero class holds 2 positions: each level is one group
    "one size": lambda s: 2 if s else 3,
    # class s holds s positions: every group is a single class
    "all sizes distinct": lambda s: s,
    # the classes s == 0 mod 3 are empty: 0, and 3^(k-1) for k >= 2, the
    # class each level pulls last
    "empty groups": lambda s: s % 3,
}


@pytest.mark.parametrize("spectrum", sorted(_GROUPED_SPECTRA))
@pytest.mark.parametrize("r, cap", [
    (1, None), (2, None), (3, 0), (3, 1), (3, 6), (4, 0), (4, 1), (4, 6),
])
def test_dp_matches_the_unfolded_dp_on_grouped_spectra(monkeypatch, spectrum, r, cap):
    f = Field(r)
    counts = _pair_spectrum(f, _GROUPED_SPECTRA[spectrum])
    monkeypatch.setattr(codes, "trace_spectrum_closed", lambda field, tag: counts)
    top = code_length(f.q, "so3") if cap is None else cap
    assert weight_distribution_dp(f, "so3", truncate_at=cap).counts == _dp_unfolded(f, "so3", top)


def _sizes(field, counts):
    """The positions of class {s, -s} at each s, as the DP reads them."""
    return [counts[s] + counts[field.neg(s)] if s else counts[0] for s in field.elements()]


def _orbits(field, d):
    """The orbits of <-1, phi^d> on GF(q), phi(x) = x^3, each as a frozenset."""
    def images(x):
        return {field.pow(x, 3 ** (d * k)) for k in range(field.r)}
    return {frozenset(images(x) | {field.neg(y) for y in images(x)}) for x in field.elements()}


def _spy_columns(monkeypatch):
    """Record the number of state columns of each DP run."""
    columns = []
    orbit_columns = codes._orbit_columns

    def spying(field, sizes, alone):
        reps, col_of = orbit_columns(field, sizes, alone)
        columns.append(len(reps))
        return reps, col_of

    monkeypatch.setattr(codes, "_orbit_columns", spying)
    return columns


@pytest.mark.parametrize("r, modulus, cap, tags, d, width", [
    (3, None, 6, GROUPS, 1, 6), (4, None, 6, GROUPS, 1, 14), (5, None, 6, GROUPS, 1, 26),
    (2, None, None, ("so3",), 1, 4), (2, (2, 1, 1), None, ("so3",), 2, 5),
    (2, (2, 2, 1), None, ("so3",), 2, 5),
])
def test_dp_runs_on_the_frobenius_orbits(monkeypatch, r, modulus, cap, tags, d, width):
    """The real spectra are phi-invariant, so the truncated DP keeps one
    column per orbit of <-1, phi>: 6 / 14 / 26 at r = 3 / 4 / 5.  The full
    DP at q = 9 pulls the group of t by passes, one class at a time: at
    1,0,1 t is alone in it, and at 2,1,1 and 2,2,1 it shares it with a
    class that phi swaps with t, so d = 2 gives the 5 pairs {s, -s}."""
    f = Field(r, modulus)
    columns = _spy_columns(monkeypatch)
    for tag in tags:
        weight_distribution_dp(f, tag, truncate_at=cap)
    assert columns == [width] * len(tags)
    assert width == len(_orbits(f, d))


@pytest.mark.parametrize("modulus", [None, (2, 0, 0, 1, 1)])
@pytest.mark.parametrize("cap", [0, 1, 6])
def test_dp_matches_the_unfolded_dp_on_a_phi2_invariant_spectrum(monkeypatch, modulus, cap):
    """A spectrum at r = 4 constant on the orbits of <-1, phi^2> but not on
    those of <-1, phi>: its classes outside GF(9) hold 7 to 9 positions and
    pull by Newton's identities, those in GF(9), fixed by phi^2, hold 1 or
    2 and pull alone by passes once cap reaches their size.  The DP must
    pick d = 2 and stay exact."""
    f = Field(4, modulus)
    orbit_of = {x: orbit for orbit in _orbits(f, 2) for x in orbit}

    def size(s):
        low = min(orbit_of[s])
        return 1 + low % 2 if f.pow(s, 9) in (s, f.neg(s)) else 7 + low % 3

    counts = _pair_spectrum(f, size)
    sizes = _sizes(f, counts)
    assert any(sizes[f.pow(s, 3)] != sizes[s] for s in f.elements())
    monkeypatch.setattr(codes, "trace_spectrum_closed", lambda field, tag: counts)
    columns = _spy_columns(monkeypatch)
    assert weight_distribution_dp(f, "so3", truncate_at=cap).counts == _dp_unfolded(f, "so3", cap)
    assert columns == [len(_orbits(f, 2))]
    assert len(_orbits(f, 1)) < columns[0] < (f.q + 1) // 2


def test_dp_builds_the_rows_once_per_group(monkeypatch):
    """The classes that share a size share their rows R_0 and R_1.  At r = 5
    the DP builds them once per group of its plan, at most 6 times, where a
    pull per class builds them for each of the 122 classes."""
    calls = []
    site_rows = codes._site_rows

    def counting(n, cap):
        calls.append(n)
        return site_rows(n, cap)

    monkeypatch.setattr(codes, "_site_rows", counting)
    f = Field(5)
    for tag in GROUPS:
        calls.clear()
        weight_distribution_dp(f, tag, truncate_at=6)
        plan = codes._dp_plan(f, _sizes(f, trace_spectrum_closed(f, tag)))
        assert calls == [n for n, _, _ in plan], tag
        assert 0 < len(calls) <= 6, (tag, len(calls))


@pytest.mark.parametrize("r, modulus", [
    (1, None), (1, (1, 1)), (2, None), (2, (2, 1, 1)), (3, None), (3, (1, 0, 2, 1)),
    (4, None), (4, (1, 0, 1, 1, 1)), (5, None), (5, (1, 0, 0, 0, 2, 1)),
])
def test_encodings_below_each_power_of_3_are_a_subspace(r, modulus):
    """The encodings s < 3^k are the GF(3)-span of 1, t, ..., t^(k-1): each
    such set is closed under + and -, and its pairs are a prefix of the reps."""
    f = Field(r, modulus)
    reps = [s for s in f.elements() if s <= f.neg(s)]
    for k in range(r + 1):
        low = range(3**k)
        assert all(f.neg(s) in low for s in low), k
        assert all(f.add(s, t) in low for s in low for t in low), k
        assert reps[:(3**k + 1) // 2] == [s for s in reps if s in low], k


def test_slot_bytes_fit_the_largest_bound():
    for m in range(60):
        for width in range(m + 1):
            top = max(comb(m, j) * 2**j for j in range(width + 1))
            assert codes._slot_bytes(m, width) == (top.bit_length() + 7) // 8, (m, width)


@pytest.mark.parametrize("r, cap", [(1, None), (2, None), (5, 6)])
def test_dp_reaches_the_slot_bound(monkeypatch, r, cap):
    """With every position in trace class 0, every word of GF(3)^N sums to 0,
    so C_j = C(N, j) 2^j: each count sits at the bound the slots are sized by."""
    f = Field(r)
    n = code_length(f.q, "so3")
    monkeypatch.setattr(codes, "trace_spectrum_closed",
                        lambda field, tag: (n,) + (0,) * (field.q - 1))
    top = n if cap is None else cap
    assert weight_distribution_dp(f, "so3", truncate_at=cap).counts == \
        tuple(comb(n, j) * 2**j for j in range(top + 1))


@pytest.mark.parametrize("r, cap", [(3, 6), (4, 6), (4, 12)])
def test_dp_subset_shifts_may_carry_past_their_slots(monkeypatch, r, cap):
    """The T_w of a group and their products P T_w are never masked, so
    their slots need no bound.  Here the last rep of the top level holds 128
    positions and is pulled first; every other rep of that level holds
    cap + 1 > cap, so they pull as one group by Newton's identities.  The
    pull is linear in the state slot by slot, so a spy runs it on each
    slot's integers alone, unmasked and with the unit vector at w for the
    products, to read the coefficients of T_w; some coefficient of some
    P T_w passes what a slot holds, and the counts must still be exact."""
    f = Field(r)
    last = max(s for s in range(3 ** (r - 1), f.q) if s <= f.neg(s))
    counts = _pair_spectrum(f, lambda s: 128 if s == last else (cap + 1) * (s >= 3 ** (r - 1)))
    monkeypatch.setattr(codes, "trace_spectrum_closed", lambda field, tag: counts)
    pull, carried = codes._pull_by_newton, []

    def spying(state, shift, k, products, nout, mask):
        nbytes = mask.bit_length() // (8 * (cap + 1))  # both pulls are at width cap
        slots = max(col.bit_length() for col in state) // (8 * nbytes) + 1
        for plane in zip(*(_unpack(col, slots, nbytes) for col in state)):
            for w in range(1, len(products)):
                t = pull(list(plane), shift, k, [0] * w + [1], None, -1)
                top = max(max(t), *(sum(map(mul, mults, map(t.__getitem__, cols)))
                                    for cols, mults in shift))
                carried.append(top >> 8 * nbytes > 0)
        return pull(state, shift, k, products, nout, mask)

    monkeypatch.setattr(codes, "_pull_by_newton", spying)
    assert weight_distribution_dp(f, "so3", truncate_at=cap).counts == _dp_unfolded(f, "so3", cap)
    assert any(carried)


@pytest.mark.parametrize("r, cap", [(1, None), (2, None), (5, 6)])
def test_dp_with_every_position_in_trace_1(monkeypatch, r, cap):
    """With every position in trace class 1 and every other class empty, a word
    sums to 0 when its numbers of 1s and 2s agree mod 3, so filtering by the
    cube roots of unity gives C_j = C(N, j) (2^j + 2 (-1)^j) / 3.  Class 1 is
    the last class before 0 and writes column 0 alone."""
    f = Field(r)
    n = code_length(f.q, "so3")
    monkeypatch.setattr(codes, "trace_spectrum_closed",
                        lambda field, tag: (0, n) + (0,) * (field.q - 2))
    top = n if cap is None else cap
    assert weight_distribution_dp(f, "so3", truncate_at=cap).counts == \
        tuple(comb(n, j) * (2**j + 2 * (-1) ** j) // 3 for j in range(top + 1))


def _spy_passes(monkeypatch):
    """Record each class the DP pulls by passes, as whether 2S - T, the
    packed factor of (1 - y)^n, is negative in some column it writes."""
    calls = []
    pull = codes._pull_by_passes

    def spying(state, lo, hi, n, nbytes, mask):
        calls.append(any(2 * s - state[a] - state[b] < 0 for s, a, b in zip(state, lo, hi)))
        return pull(state, lo, hi, n, nbytes, mask)

    monkeypatch.setattr(codes, "_pull_by_passes", spying)
    return calls


def _classes_after_the_first_group(field, counts):
    return sum(len(betas) for _, betas, _ in codes._dp_plan(field, _sizes(field, counts))[1:])


_PASS_SPECTRA = {
    # every class a size of its own, s and -s apart
    "s + 1": lambda s: s + 1,
    # sizes repeating out of order, so some groups hold several classes
    "5s + 2 mod 7": lambda s: 1 + (5 * s + 2) % 7,
    # one size: each level pulls as a single group
    "one size": lambda s: 2,
}


@pytest.mark.parametrize("spectrum", sorted(_PASS_SPECTRA))
@pytest.mark.parametrize("r, modulus", [(1, None), (1, (2, 1)), (2, None), (2, (2, 1, 1))])
def test_pass_pull_matches_the_unfolded_dp(monkeypatch, spectrum, r, modulus):
    """Untruncated, every group after the first goes by passes."""
    f = Field(r, modulus)
    counts = tuple(map(_PASS_SPECTRA[spectrum], f.elements()))
    monkeypatch.setattr(codes, "trace_spectrum_closed", lambda field, tag: counts)
    calls = _spy_passes(monkeypatch)
    result = weight_distribution_dp(f, "so3").counts
    assert len(calls) == _classes_after_the_first_group(f, counts) > 0
    assert result == _dp_unfolded(f, "so3", code_length(f.q, "so3"))


@pytest.mark.parametrize("modulus", [None, (2, 1, 1)])
def test_pass_pull_with_a_negative_factor_of_the_v_passes(monkeypatch, modulus):
    """Class s holding s + 1 positions makes 2S - T negative in some column
    of the first two classes pulled by passes at r = 2; the signed value
    and its borrows still read back exactly."""
    f = Field(2, modulus)
    counts = tuple(s + 1 for s in f.elements())
    monkeypatch.setattr(codes, "trace_spectrum_closed", lambda field, tag: counts)
    calls = _spy_passes(monkeypatch)
    result = weight_distribution_dp(f, "so3").counts
    assert calls[:2] == [True, True]
    assert result == _dp_unfolded(f, "so3", code_length(f.q, "so3"))


@pytest.mark.parametrize("modulus", [None, (2, 1)])
@pytest.mark.parametrize("counts, cap", [((2, 4, 0), 4), ((1, 10, 0), 2)])
def test_truncated_pass_pull_masks_after_the_division(monkeypatch, modulus, counts, cap):
    """At r = 1 class 0 holds n(0) <= width <= cap positions and goes by
    passes.  The top count kept is near its slot's limit here, so 3 times
    it runs past the mask: masking before the division by 3 loses it."""
    f = Field(1, modulus)
    monkeypatch.setattr(codes, "trace_spectrum_closed", lambda field, tag: counts)
    calls = _spy_passes(monkeypatch)
    result = weight_distribution_dp(f, "so3", truncate_at=cap).counts
    assert len(calls) == 1
    assert result == _dp_unfolded(f, "so3", cap)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_truncated_dp_pulls_no_class_by_passes(monkeypatch, r):
    """From r = 2 on, every class of the three codes holds more than 16
    positions, so each pull of the recursion rows (cap <= 16) keeps the
    packed products."""
    f = Field(r)
    calls = _spy_passes(monkeypatch)
    for tag in GROUPS:
        weight_distribution_dp(f, tag, truncate_at=16)
    assert calls == []


def test_full_dp_at_q9_pulls_every_group_after_the_first_by_passes(monkeypatch):
    f = Field(2)
    calls = _spy_passes(monkeypatch)
    for tag in GROUPS:
        calls.clear()
        weight_distribution_dp(f, tag)
        assert len(calls) == _classes_after_the_first_group(f, trace_spectrum_closed(f, tag)), tag


@pytest.mark.parametrize("tag", GROUPS)
def test_truncation_is_a_prefix(tag):
    f = Field(1)
    full = weight_distribution_dp(f, tag).counts
    head = weight_distribution_dp(f, tag, truncate_at=6)
    assert len(head.counts) == 7
    assert head.counts == full[:7]
    assert weight_distribution_dp(f, tag, truncate_at=10**6).counts == full


def test_truncated_counts_beyond_cap():
    """Prefix counts stay available at scales where the full table is refused."""
    f27 = Field(3)
    with pytest.raises(UnsupportedScaleError):
        weight_distribution_dp(f27, "so3")
    with pytest.raises(UnsupportedScaleError):
        weight_distribution_macwilliams(f27, "so3")
    head = weight_distribution_dp(f27, "so3", truncate_at=2).counts
    assert head[0] == 1 and head[1] > 0 and len(head) == 3
    with pytest.raises(ValueError):
        weight_distribution_dp(f27, "so3", truncate_at=-1)


def _not_reached(*args):
    raise AssertionError("a refused DP went past its refusal")


def test_truncation_that_keeps_every_count_is_the_full_table(monkeypatch):
    """truncate_at >= N asks for the full table, so it meets the full-table
    bound, and is refused before any column is packed."""
    assert weight_distribution_dp(Field(2), "sp2", truncate_at=720).counts == \
        weight_distribution_dp(Field(2), "sp2").counts
    monkeypatch.setattr(codes, "_pack", _not_reached)
    for cap in (19656, 10**5):
        with pytest.raises(UnsupportedScaleError, match="N <= 2000"):
            weight_distribution_dp(Field(3), "so3", truncate_at=cap)


def test_dp_state_budget_is_exact(monkeypatch):
    """The full o3 table at q = 9 packs 4 columns of 1441 slots of 285 bytes:
    a budget of exactly that runs, one byte less is refused unpacked, and
    at q = 6561, cap 10^5 the cheap lower bound refuses it."""
    f = Field(2)
    assert codes._DP_STATE_MAX_BYTES >= 4 * 1441 * 285
    monkeypatch.setattr(codes, "_DP_STATE_MAX_BYTES", 4 * 1441 * 285)
    assert sum(weight_distribution_dp(f, "o3").counts) == 3 ** (1440 - 2)
    monkeypatch.setattr(codes, "_DP_STATE_MAX_BYTES", 4 * 1441 * 285 - 1)
    monkeypatch.setattr(codes, "_pack", _not_reached)
    with pytest.raises(UnsupportedScaleError, match="state bounded"):
        weight_distribution_dp(f, "o3")
    monkeypatch.undo()
    monkeypatch.setattr(codes, "_pack", _not_reached)
    monkeypatch.setattr(codes, "_slot_bytes", _not_reached)
    with pytest.raises(UnsupportedScaleError, match="424 columns of 100001 weights"):
        weight_distribution_dp(Field(8), "so3", truncate_at=10**5)


def test_sampled_codewords_hit_positive_counts():
    """Vectors orthogonal to the dual words really have weights the DP counts.

    Sample random vectors, fix up one coordinate to land in the kernel of
    c(1) (which spans the dual at r = 1), and check the resulting weight has
    a positive count.
    """
    f = Field(1)
    rng = Random(20240814)
    for tag in GROUPS:
        n = code_length(3, tag)
        gen = dual_codeword(f, tag, 1)
        pivot = next(i for i, c in enumerate(gen) if c == 1)
        counts = weight_distribution_dp(f, tag).counts
        for _ in range(100):
            vec = [rng.randrange(3) for _ in range(n)]
            s = sum(v * c for v, c in zip(vec, gen)) % 3
            vec[pivot] = (vec[pivot] - s) % 3
            assert sum(v * c for v, c in zip(vec, gen)) % 3 == 0
            assert sum(v * c for v, c in zip(vec, dual_codeword(f, tag, 2))) % 3 == 0
            assert counts[sum(1 for v in vec if v)] > 0


# ---------------------------------------------------------------------------
# the power-moment identity


@pytest.mark.parametrize("tag", GROUPS)
def test_pless_q3(tag):
    f = Field(1)
    counts = weight_distribution_dp(f, tag).counts
    for h in range(9):
        rep = pless_check(f, tag, h, counts=counts)
        assert rep.equal, f"h={h}: {rep.lhs} != {rep.rhs}"
    rep0 = pless_check(f, tag, 0, counts=counts)
    assert rep0.lhs == 3 ** (code_length(3, tag) - 1)


@pytest.mark.parametrize("tag", GROUPS)
def test_pless_q9(tag, q9_dists):
    f = Field(2)
    counts = q9_dists[(tag, "dp")]
    for h in (1, 2, 3, 4):
        rep = pless_check(f, tag, h, counts=counts)
        assert rep.equal


def test_pless_sum_full_space_oracle():
    """The dual of GF(3)^n is the zero word alone, so 3^n pless_sum(n, h, [1])
    is the h-th power moment of the weights of all 3^n words."""
    for n in range(13):
        for h in range(9):
            moment = sum(j**h * comb(n, j) * 2**j for j in range(n + 1))
            assert 3**n * pless_sum(n, h, [1]) == moment, (n, h)


def test_pless_non_integer_rhs_is_a_verification_error(monkeypatch):
    """With a length that does not fit the dual spectrum, 3^(N-r) pless_sum
    leaves a denominator; that is a failed invariant, not a verdict."""
    f = Field(1)
    counts = weight_distribution_dp(f, "so3").counts
    monkeypatch.setattr(codes, "code_length", lambda q, tag: 2)
    with pytest.raises(VerificationError):
        pless_check(f, "so3", 4, counts=counts)


def test_pless_default_counts_and_guard():
    f = Field(1)
    assert pless_check(f, "so3", 2).equal
    with pytest.raises(ValueError):
        pless_check(f, "so3", -1)


# ---------------------------------------------------------------------------
# dual weights from the groups' exponential sums


def test_inexact_dual_weight_is_a_verification_error(monkeypatch):
    """2N - 2Re G(a) must be divisible by 3; a G(a) off by one leaves a remainder."""
    f = Field(1)
    enumerated = codes.gauss_sum_enumerated
    monkeypatch.setattr(codes, "gauss_sum_enumerated",
                        lambda field, gid, a: enumerated(field, gid, a) + 1)
    with pytest.raises(VerificationError, match="not an integer"):
        codes.dual_weights.__wrapped__(f, "so3")  # past any cached table


def test_codes_imports_nothing_from_charsums():
    """The dual weights come from the Gauss sums in groups, not from K(a) or lambda."""
    tree = ast.parse(Path(codes.__file__).read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert not modules & {"charsums", "klc.charsums"}
    assert not names & {"charsums", "kloosterman_all", "additive_char"}
