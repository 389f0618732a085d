"""Acceptance gate: one test per shipped guarantee, thirteen in all.

Every identity is checked by exact integer/rational equality -- there are
no tolerances anywhere.  Each test prints a single line

    ACCEPTANCE NN PASS|FAIL: <name>

(visible with pytest -s; under plain pytest the per-test PASSED/FAILED
verdicts carry the same information) and the timed criteria assert their
stated budgets.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from klc.charsums import (
    kloosterman_all,
    kloosterman_gl,
    kloosterman_gl_brute,
    moment_table,
    prop_e_check,
)
from klc.codes import (
    code_length,
    dual_weight_formula,
    dual_weights,
    pless_check,
    weight_distribution_dp,
    weight_distribution_macwilliams,
)
from klc.eisenstein import CycInt
from klc.groups import (
    GROUPS,
    brute_force_group,
    enumerate_group,
    gauss_sum_closed,
    gauss_sum_enumerated,
    mat_det,
    trace_spectrum,
    trace_spectrum_closed,
)
from klc.moments import corollary_n, theorem_a1, theorem_a2, theorem_l


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_first_moment_closed_forms(f3, f9, f27):
    t0 = time.perf_counter()
    ok = True
    for f in (f3, f9, f27):
        ok = ok and all(rep.equal for rep in corollary_n(f))
    anchors = [rep.rhs for rep in corollary_n(f3)]
    ok = ok and anchors == [Fraction(-1), Fraction(0), Fraction(-2)]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(1, "first-moment closed forms at q=3,9,27", ok, f"{elapsed:.3f}s < 1s")


def test_criterion_02_so3_code_recursion(f3, f9, f27):
    t0 = time.perf_counter()
    reports = theorem_a1(f3, 8) + theorem_a1(f9, 8) + theorem_a1(f27, 6)
    ok = all(rep.equal for rep in reports)
    anchor = theorem_a1(f3, 1)[0]
    ok = ok and anchor.lhs == anchor.rhs == Fraction(-3)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(2, "moment recursion via the so3 code", ok, f"{elapsed:.2f}s < 60s")


def test_criterion_03_o3_code_recursion(f3, f9, f27):
    t0 = time.perf_counter()
    reports = theorem_a2(f3, 8) + theorem_a2(f9, 8) + theorem_a2(f27, 6)
    ok = all(rep.equal for rep in reports)
    anchor = theorem_a2(f3, 1)[0]
    ok = ok and anchor.lhs == anchor.rhs == Fraction(-3)
    ok = ok and all(rep.note == "exponent base s read as 2" for rep in reports)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(3, "moment recursion via the o3 code", ok, f"{elapsed:.2f}s < 60s")


def test_criterion_04_sp2_code_identity(f3, f9):
    reports = theorem_l(f3, 6) + theorem_l(f9, 6)
    ok = all(rep.equal for rep in reports)
    anchor = theorem_l(f3, 1)[0]
    ok = ok and anchor.lhs == anchor.rhs == Fraction(36)
    _verdict(4, "square-moment identity via the sp2 code", ok)


def test_criterion_05_group_exponential_sums(f3, f9, f27):
    ok = True
    for f in (f3, f9, f27):
        for gid in ("so3", "o3"):
            for a in f.units():
                closed = gauss_sum_closed(f, gid, a)
                ok = ok and gauss_sum_enumerated(f, gid, a) == closed
                if gid == "o3":
                    ok = ok and closed.is_real()
    ok = ok and gauss_sum_closed(f3, "so3", 1) == CycInt(0, -3)
    ok = ok and gauss_sum_closed(f3, "o3", 1) == CycInt(3, 0)
    _verdict(5, "exponential sums equal closed forms, o3 values real", ok)


def test_criterion_06_trace_spectra(f3, f9, f27):
    ok = True
    for f in (f3, f9, f27):
        for gid in GROUPS:
            enumerated = trace_spectrum(f, gid)
            ok = ok and enumerated == trace_spectrum_closed(f, gid)
            ok = ok and all(n > 0 for n in enumerated)
    ok = ok and trace_spectrum(f3, "so3") == (9, 6, 9)
    ok = ok and trace_spectrum(f3, "o3") == (18, 15, 15)
    _verdict(6, "trace spectra match closed forms, all positive", ok)


def test_criterion_07_enumeration_oracle(f3):
    t0 = time.perf_counter()
    ok = sorted(enumerate_group(f3, "o3")) == sorted(brute_force_group(f3, "o3"))
    ok = ok and sorted(enumerate_group(f3, "so3")) == sorted(brute_force_group(f3, "so3"))
    ok = ok and len(enumerate_group(f3, "o3")) == 48
    ok = ok and len(enumerate_group(f3, "so3")) == 24
    ok = ok and len(enumerate_group(f3, "sp2")) == 24
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(7, "cell enumeration equals exhaustive filter at q=3", ok,
             f"{elapsed:.2f}s < 5s")


def test_criterion_08_weight_distribution_crosscheck(f3, f9, q9_dists):
    ok = True
    for tag in GROUPS:
        dp = weight_distribution_dp(f3, tag).counts
        mw = weight_distribution_macwilliams(f3, tag).counts
        ok = ok and dp == mw and sum(dp) == 3 ** (code_length(3, tag) - 1)
    ok = ok and weight_distribution_dp(f3, "so3").counts[1] == 18
    ok = ok and weight_distribution_dp(f3, "o3").counts[1] == 36
    ok = ok and weight_distribution_dp(f3, "sp2").counts[1] == 12
    for tag in GROUPS:
        dp, mw = q9_dists[(tag, "dp")], q9_dists[(tag, "mw")]
        ok = ok and dp == mw and sum(dp) == 3 ** (code_length(9, tag) - 2)
    _verdict(8, "dp and macwilliams weight distributions identical", ok)


def test_criterion_09_power_moment_identity(f3, f9, q9_dists):
    ok = True
    for tag in GROUPS:
        c3 = weight_distribution_dp(f3, tag).counts
        for h in range(1, 5):
            ok = ok and pless_check(f3, tag, h, counts=c3).equal
            ok = ok and pless_check(f9, tag, h, counts=q9_dists[(tag, "dp")]).equal
    _verdict(9, "power moments match dual spectrum, h=1..4", ok)


def test_criterion_10_twisted_moment_identity(f3, f9, f27):
    ok = True
    for f in (f3, f9, f27):
        ok = ok and all(rep.equal for rep in prop_e_check(f, 4))
    _verdict(10, "twisted moment identity, m=0..4, all beta", ok)


def test_criterion_11_gl_kloosterman(f3):
    gl2_size = sum(
        1
        for a in range(3) for b in range(3) for c in range(3) for d in range(3)
        if mat_det(f3, ((a, b), (c, d))) != 0
    )
    ok = gl2_size == 48
    ok = ok and kloosterman_gl(f3, 2, 1) == 21 == kloosterman_gl_brute(f3, 2, 1)
    for a in f3.units():
        for t in (0, 1, 2):
            ok = ok and kloosterman_gl(f3, t, a) == kloosterman_gl_brute(f3, t, a)
    _verdict(11, "GL(t,3) recursion equals brute force, t<=2", ok)


def test_criterion_12_property_suite(f3, f9, f27):
    ok = True
    for f in (f3, f9, f27):
        kv = kloosterman_all(f)
        ok = ok and all(kv[a] * kv[a] <= 4 * f.q for a in f.units())
        mt = moment_table(f, 8)
        ok = ok and all(
            2 * mt["SK"][h] == mt["T0SK"][h] + mt["T12SK"][h]
            for h in range(9)
        )
        for tag in ("so3", "o3"):
            ws = dual_weights(f, tag)
            ok = ok and all(
                ws[a] == dual_weight_formula(f, tag, a) for a in f.units()
            )
    _verdict(12, "Weil bound, moment relation, dual weights both paths", ok)


def test_criterion_13_performance_envelope():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    ok = True
    for r in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "klc.cli", "verify", "all", "--q-exponent", r],
            capture_output=True, text=True, timeout=280, env=env,
        )
        ok = ok and proc.returncode == 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _verdict(13, "verify-all battery at r=1,2,3 inside the budget", ok,
             f"{elapsed:.1f}s < 300s")
