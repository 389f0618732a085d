"""The `verify all` battery: one ordered table of named checks.

Each entry of CHECKS is (row names, largest r, check), and check(field)
returns one (pass, detail) pair per name.  An entry runs when r is at most
its largest r: the largest r at which it takes under 2 s, or the
bound of a library function it calls.  Past it, each of its names gets a
row that says so, with no pass flag.  An entry that raises
VerificationError gives a failing row with the error for each of its
names, and the entries after it still run.  Checks look library functions
up as module globals at call time, so rebinding a name here reaches every
call.  Every check is deterministic: the rows depend only on the field.
"""

from __future__ import annotations

from .charsums import (kloosterman_all, kloosterman_gl, kloosterman_gl_brute,
                       moment_table, prop_e_check)
from .codes import (code_length, dual_weight_formula, dual_weights, pless_check,
                    weight_distribution_dp, weight_distribution_macwilliams)
from .errors import VerificationError
from .field import Field
from .groups import (GROUPS, brute_force_group, enumerate_group, gauss_sum_closed,
                     gauss_sum_enumerated, trace_spectrum, trace_spectrum_closed)
from .moments import corollary_n, theorem_a1, theorem_a2, theorem_l


def _corollary_n(field: Field):
    reps = corollary_n(field)
    return [(all(x.equal for x in reps), ", ".join(f"{x.family}={x.rhs}" for x in reps))]


def _theorem_a(theorem, field: Field):
    h = 8 if field.r <= 2 else 6
    return [(all(x.equal for x in theorem(field, h)), f"h=1..{h} all equal")]


def _theorem_l(field: Field):
    return [(all(x.equal for x in theorem_l(field, 6)), "h=1..6 all equal")]


def _gauss_sums(field: Field):
    ok = all(gauss_sum_enumerated(field, gid, a) == gauss_sum_closed(field, gid, a)
             for gid in GROUPS for a in field.units())
    return [(ok, "spectrum equals closed form for all units, all groups")]


def _trace_spectra(field: Field):
    pairs = [(trace_spectrum(field, gid), trace_spectrum_closed(field, gid)) for gid in GROUPS]
    return [(all(enum == closed and min(enum) > 0 for enum, closed in pairs),
             "enumeration equals closed forms; all counts positive")]


def _enumeration(field: Field):
    """enumerate_group raises unless each group comes out with its order's
    count of distinct checked members, which makes it the whole group and
    so closed; at q = 3 it must also equal the brute-force filter."""
    ok, details = True, [f"{gid}:{len(enumerate_group(field, gid))}" for gid in GROUPS]
    if field.q == 3:
        ok = all(sorted(enumerate_group(field, gid)) == sorted(brute_force_group(field, gid))
                 for gid in GROUPS)
        details.append("3^9-filter:match")
    return [(ok, ", ".join(details))]


def _spectra(field: Field):
    """Both rows read one DP and one MacWilliams pass per code."""
    ok, pless = True, True
    for tag in GROUPS:
        dp = weight_distribution_dp(field, tag).counts
        mw = weight_distribution_macwilliams(field, tag).counts
        ok = ok and dp == mw and sum(dp) == 3 ** (code_length(field.q, tag) - field.r)
        pless = pless and all(pless_check(field, tag, h, counts=dp).equal for h in range(1, 5))
    return [(ok, "dp == macwilliams, totals 3^(N-r)"), (pless, "h=1..4 for all codes")]


def _prop_e(field: Field):
    return [(all(x.equal for x in prop_e_check(field, 4)), "m=0..4, all beta")]


def _gl_kloosterman(field: Field):
    ok = all(kloosterman_gl(field, t, a) == kloosterman_gl_brute(field, t, a)
             for t in (0, 1, 2) for a in field.units())
    return [(ok, "recursion equals GL(t,3) brute force, t <= 2")]


def _property_suite(field: Field):
    kv = kloosterman_all(field)
    mt = moment_table(field, 8)
    duals = [(tag, dual_weights(field, tag)) for tag in ("so3", "o3")]
    ok = (all(kv[a] * kv[a] <= 4 * field.q for a in field.units())
          and all(2 * mt.value("SK", h) == mt.value("T0SK", h) + mt.value("T12SK", h)
                  for h in range(9))
          and all(ws[a] == dual_weight_formula(field, tag, a)
                  for tag, ws in duals for a in field.units()))
    return [(ok, "Weil bound; 2SK == T0SK + T12SK (h<=8); dual weights both paths")]


# (row names, largest r, check), in output order
CHECKS = (
    (("corollary-n",), 8, _corollary_n),
    (("theorem-a1",), 7, lambda field: _theorem_a(theorem_a1, field)),
    (("theorem-a2",), 7, lambda field: _theorem_a(theorem_a2, field)),
    (("theorem-l",), 7, _theorem_l),
    (("gauss-sums",), 3, _gauss_sums),
    (("trace-spectra",), 3, _trace_spectra),
    (("enumeration",), 3, _enumeration),
    (("weight-distributions", "pless"), 2, _spectra),
    (("prop-e",), 6, _prop_e),
    (("gl-kloosterman",), 2, _gl_kloosterman),
    (("property-suite",), 3, _property_suite),
)


def battery_rows(field: Field) -> list[dict]:
    """One row per name, in table order: {"check", "q", "pass", "detail" or
    "error"}, or {"check", "q", "skipped"} past the entry's largest r."""
    rows = []
    for names, largest, check in CHECKS:
        if field.r > largest:
            results = [{"skipped": f"runs at r <= {largest}"}] * len(names)
        else:
            try:
                results = [{"pass": bool(ok), "detail": detail}
                           for ok, detail in check(field)]
            except VerificationError as exc:
                results = [{"pass": False, "error": str(exc)}] * len(names)
        rows += [{"check": name, "q": field.q, **res}
                 for name, res in zip(names, results, strict=True)]
    return rows
