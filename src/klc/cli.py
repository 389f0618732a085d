"""Command-line interface.

Every leaf command takes --q-exponent/--modulus to pick the field,
--output json|csv to pick the row format, and --seed for randomized spot
checks.  JSON output is one object per line with sorted keys, preceded by
a header row that echoes the configuration and carries the only timestamp;
reruns with identical flags are byte-identical apart from that line.  CSV
output is a flat, lossy convenience rendering of the same rows.

Exit status: 0 on success, 1 when any emitted verification row carries a
false equal/pass flag, 2 on usage errors.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import click

from .charsums import (kloosterman_all, kloosterman_gl, kloosterman_gl_brute,
                       moment_table, prop_e_check, salie_check)
from .codes import (code_length, dual_spectrum, dual_weight_formula, dual_weights,
                    pless_check, weight_distribution_dp, weight_distribution_macwilliams)
from .errors import UnsupportedScaleError, VerificationError
from .field import Field
from .groups import (GROUPS, brute_force_orthogonal, check_gauss_sum,
                     check_trace_spectrum, closure_spot_check, enumerate_group,
                     group_order)
from .moments import corollary_n, theorem_a1, theorem_a2, theorem_l

_FLAG_KEYS = ("equal", "pass")


@dataclass(frozen=True)
class RunConfig:
    r: int
    modulus: tuple[int, ...]
    output: str
    seed: int


def _build(q_exponent: int, modulus: str | None, output: str, seed: int) -> tuple[Field, RunConfig]:
    coeffs = None
    if modulus:
        try:
            coeffs = [int(c) for c in modulus.split(",")]
        except ValueError:
            raise click.UsageError(f"--modulus expects comma-separated integers, got {modulus!r}")
    field = _wrap(lambda: Field(q_exponent, coeffs))
    cfg = RunConfig(r=field.r, modulus=field.modulus, output=output, seed=seed)
    return field, cfg


def _emit(cfg: RunConfig, command: str, rows: list[dict]) -> None:
    if cfg.output == "json":
        header = {
            "event": "run",
            "command": command,
            "q": 3**cfg.r,
            "modulus": list(cfg.modulus),
            "seed": cfg.seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        click.echo(json.dumps(header, sort_keys=True))
        for row in rows:
            click.echo(json.dumps(row, sort_keys=True))
    else:
        if not rows:
            return
        keys = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(sys.stdout, fieldnames=keys, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in keys})


def _finish(rows: list[dict]) -> None:
    for row in rows:
        for key in _FLAG_KEYS:
            if row.get(key) is False:
                sys.exit(1)


def common_options(fn):
    fn = click.option("--seed", type=int, default=0, show_default=True,
                      help="Seed for randomized spot checks.")(fn)
    fn = click.option("--output", type=click.Choice(["json", "csv"]), default="json",
                      show_default=True, help="Row format.")(fn)
    fn = click.option("--modulus", type=str, default=None,
                      help="Modulus coefficients, constant term first, comma separated.")(fn)
    fn = click.option("--q-exponent", type=click.IntRange(1, 8), default=1,
                      show_default=True, help="Exponent r of q = 3^r.")(fn)
    return fn


def _wrap(body):
    try:
        return body()
    except (UnsupportedScaleError, ValueError) as exc:
        raise click.UsageError(str(exc))
    except VerificationError as exc:
        click.echo(f"verification failure: {exc}", err=True)
        sys.exit(1)


@click.group()
def main():
    """Exact verification of Kloosterman-moment and ternary-code identities."""


# ---------------------------------------------------------------------------
# charsums


@main.group("charsums")
def charsums_cmd():
    """Kloosterman sums, moments and related character sums."""


@charsums_cmd.command("moments")
@common_options
@click.option("--hmax", type=click.IntRange(0, 16), default=8, show_default=True)
def charsums_moments(q_exponent, modulus, output, seed, hmax):
    """Emit the four moment families for h = 0..hmax."""
    field, cfg = _build(q_exponent, modulus, output, seed)
    rows = _wrap(lambda: moment_table(field, hmax).rows())
    _emit(cfg, "charsums moments", rows)


@charsums_cmd.command("salie")
@common_options
@click.option("--hmax", type=click.IntRange(1, 4), default=2, show_default=True)
def charsums_salie(q_exponent, modulus, output, seed, hmax):
    """Report the Salie recurrence for MK^h (stated at prime q)."""
    field, cfg = _build(q_exponent, modulus, output, seed)
    reps = _wrap(lambda: salie_check(field, hmax))
    rows = [{"q": x.q, "h": x.h, "lhs": str(x.lhs), "rhs": str(x.rhs), "equal": x.equal}
            for x in reps]
    _emit(cfg, "charsums salie", rows)
    _finish(rows)


@charsums_cmd.command("prop-e")
@common_options
@click.option("--mmax", type=click.IntRange(0, 4), default=4, show_default=True)
def charsums_prop_e(q_exponent, modulus, output, seed, mmax):
    """Check the twisted moment identity against the tuple counts delta."""
    field, cfg = _build(q_exponent, modulus, output, seed)
    reps = _wrap(lambda: prop_e_check(field, mmax))
    rows = [{"q": x.q, "m": x.m, "beta": x.beta, "lhs": str(x.lhs), "rhs": str(x.rhs),
             "equal": x.equal} for x in reps]
    _emit(cfg, "charsums prop-e", rows)
    _finish(rows)


# ---------------------------------------------------------------------------
# group


@main.group("group")
def group_cmd():
    """Enumeration, trace spectra and exponential sums of the groups."""


@group_cmd.command("enumerate")
@common_options
@click.option("--group", "gid", type=click.Choice(GROUPS), required=True)
@click.option("--oracle", is_flag=True,
              help="Cross-check against the 3^9 / 3^4 filter (q = 3 only).")
def group_enumerate(q_exponent, modulus, output, seed, gid, oracle):
    """Emit the group elements as rows of enc-integer grids (q <= 27)."""
    field, cfg = _build(q_exponent, modulus, output, seed)
    if oracle and field.q != 3:
        raise click.UsageError("--oracle requires --q-exponent 1")

    def body():
        elems = enumerate_group(field, gid)
        rows = [{"index": i, **{f"e{a}{b}": v for a, line in enumerate(w)
                                for b, v in enumerate(line)}}
                for i, w in enumerate(elems)]
        expected = group_order(field.q, gid)
        rows.append({"count": len(rows), "expected": expected,
                     "pass": len(rows) == expected})
        if oracle:
            built = sorted(elems)
            if gid == "sp2":
                from .groups import is_symplectic
                ref = sorted(((a, b), (c, d))
                             for a in range(3) for b in range(3)
                             for c in range(3) for d in range(3)
                             if is_symplectic(field, ((a, b), (c, d))))
            else:
                ref = sorted(brute_force_orthogonal(field, special=gid == "so3"))
            rows.append({"oracle": "brute-force filter", "pass": built == ref})
        return rows

    rows = _wrap(body)
    _emit(cfg, "group enumerate", rows)
    _finish(rows)


@group_cmd.command("spectrum")
@common_options
@click.option("--group", "gid", type=click.Choice(GROUPS), required=True)
def group_spectrum(q_exponent, modulus, output, seed, gid):
    """Trace spectrum by enumeration, checked against the closed forms."""
    field, cfg = _build(q_exponent, modulus, output, seed)
    rep = _wrap(lambda: check_trace_spectrum(field, gid))
    rows = [{"gid": gid, "q": rep.q, "beta": beta, "enumerated": n,
             "closed": rep.closed[beta], "equal": n == rep.closed[beta]}
            for beta, n in enumerate(rep.enumerated)]
    rows.append({"gid": gid, "q": rep.q, "all_positive": rep.all_positive,
                 "pass": rep.equal and rep.all_positive})
    _emit(cfg, "group spectrum", rows)
    _finish(rows)


@group_cmd.command("gauss")
@common_options
@click.option("--group", "gid", type=click.Choice(GROUPS), required=True)
@click.option("--a", "a_enc", type=int, required=True, help="Unit a as an enc integer.")
def group_gauss(q_exponent, modulus, output, seed, gid, a_enc):
    """The exponential sum sum_w lambda(a Tr w), two ways."""
    field, cfg = _build(q_exponent, modulus, output, seed)
    rep = _wrap(lambda: check_gauss_sum(field, gid, a_enc))
    rows = [{
        "gid": gid, "q": rep.q, "a": rep.a,
        "spectrum_a": str(rep.from_spectrum.a), "spectrum_b": str(rep.from_spectrum.b),
        "closed_a": str(rep.closed.a), "closed_b": str(rep.closed.b),
        "equal": rep.equal,
    }]
    _emit(cfg, "group gauss", rows)
    _finish(rows)


# ---------------------------------------------------------------------------
# code


@main.group("code")
def code_cmd():
    """Weight data of the ternary codes attached to the groups."""


@code_cmd.command("dual-spectrum")
@common_options
@click.option("--code", "tag", type=click.Choice(GROUPS), required=True)
def code_dual_spectrum(q_exponent, modulus, output, seed, tag):
    """Weight spectrum of the q-word dual code."""
    field, cfg = _build(q_exponent, modulus, output, seed)
    spec = _wrap(lambda: dual_spectrum(field, tag))
    rows = [{"code": tag, "q": field.q, "weight": w, "count": c}
            for w, c in spec.items()]
    _emit(cfg, "code dual-spectrum", rows)


@code_cmd.command("spectrum")
@common_options
@click.option("--code", "tag", type=click.Choice(GROUPS), required=True)
@click.option("--method", type=click.Choice(["dp", "macwilliams"]), default="dp",
              show_default=True)
@click.option("--truncate", type=int, default=None,
              help="Emit only C_0..C_J (dp method only).")
def code_spectrum(q_exponent, modulus, output, seed, tag, method, truncate):
    """Weight distribution of the code by the chosen method."""
    field, cfg = _build(q_exponent, modulus, output, seed)

    def body():
        if method == "dp":
            return weight_distribution_dp(field, tag, truncate_at=truncate)
        if truncate is not None:
            raise click.UsageError("--truncate applies to the dp method only")
        return weight_distribution_macwilliams(field, tag)

    dist = _wrap(body)
    _emit(cfg, "code spectrum", dist.rows(field.q))


@code_cmd.command("pless")
@common_options
@click.option("--code", "tag", type=click.Choice(GROUPS), required=True)
@click.option("--h", "h", type=click.IntRange(0, 8), required=True)
def code_pless(q_exponent, modulus, output, seed, tag, h):
    """Check the h-th Pless power moment for the code."""
    field, cfg = _build(q_exponent, modulus, output, seed)
    rep = _wrap(lambda: pless_check(field, tag, h))
    rows = [{"code": rep.code, "q": rep.q, "h": rep.h, "lhs": str(rep.lhs),
             "rhs": str(rep.rhs), "equal": rep.equal}]
    _emit(cfg, "code pless", rows)
    _finish(rows)


# ---------------------------------------------------------------------------
# verify


@main.group("verify")
def verify_cmd():
    """Identity checkers; exit 1 when any reported side differs."""


def _recursion_rows(reports) -> list[dict]:
    return [rep.row() for rep in reports]


def _verify_leaf(runner, q_exponent, modulus, output, seed, command):
    field, cfg = _build(q_exponent, modulus, output, seed)
    rows = _wrap(lambda: _recursion_rows(runner(field)))
    _emit(cfg, command, rows)
    _finish(rows)


@verify_cmd.command("theorem-a1")
@common_options
@click.option("--hmax", type=click.IntRange(1, 16), default=4, show_default=True)
def verify_a1(q_exponent, modulus, output, seed, hmax):
    """Moment recursion from the SO(3,q) code."""
    _verify_leaf(lambda f: theorem_a1(f, hmax), q_exponent, modulus, output, seed,
                 "verify theorem-a1")


@verify_cmd.command("theorem-a2")
@common_options
@click.option("--hmax", type=click.IntRange(1, 16), default=4, show_default=True)
def verify_a2(q_exponent, modulus, output, seed, hmax):
    """Moment recursion from the O(3,q) code."""
    _verify_leaf(lambda f: theorem_a2(f, hmax), q_exponent, modulus, output, seed,
                 "verify theorem-a2")


@verify_cmd.command("theorem-l")
@common_options
@click.option("--hmax", type=click.IntRange(1, 16), default=4, show_default=True)
def verify_l(q_exponent, modulus, output, seed, hmax):
    """Square-moment identity from the Sp(2,q) code."""
    _verify_leaf(lambda f: theorem_l(f, hmax), q_exponent, modulus, output, seed,
                 "verify theorem-l")


@verify_cmd.command("corollary-n")
@common_options
def verify_n(q_exponent, modulus, output, seed):
    """Closed forms of the first moments."""
    _verify_leaf(corollary_n, q_exponent, modulus, output, seed, "verify corollary-n")


def acceptance_rows(field: Field, seed: int = 0) -> list[dict]:
    """The full per-field verification battery used by `verify all`.

    The checks mirror the acceptance suite: everything runs at r = 1 and
    r = 2; at r = 3 the full-spectrum checks drop out and the recursions
    run against truncated weight counts.
    """
    q, r = field.q, field.r
    if r > 3:
        raise UnsupportedScaleError("verify all supports r in {1, 2, 3}")
    rows: list[dict] = []

    def add(name: str, ok: bool, detail: str) -> None:
        rows.append({"check": name, "q": q, "pass": bool(ok), "detail": detail})

    reps = corollary_n(field)
    add("corollary-n", all(x.equal for x in reps),
        ", ".join(f"{x.family}={x.rhs}" for x in reps))

    hmax_a = 8 if r <= 2 else 6
    for name, runner in (("theorem-a1", theorem_a1), ("theorem-a2", theorem_a2)):
        reps = runner(field, hmax_a)
        add(name, all(x.equal for x in reps), f"h=1..{hmax_a} all equal")

    if r <= 2:
        reps = theorem_l(field, 6)
        add("theorem-l", all(x.equal for x in reps), "h=1..6 all equal")

    ok = True
    for gid in GROUPS:
        for a in field.units():
            ok = ok and check_gauss_sum(field, gid, a).equal
    add("gauss-sums", ok, "spectrum equals closed form for all units, all groups")

    ok, pos = True, True
    for gid in GROUPS:
        rep = check_trace_spectrum(field, gid)
        ok, pos = ok and rep.equal, pos and rep.all_positive
    add("trace-spectra", ok and pos, "enumeration equals closed forms; all counts positive")

    ok = True
    details = []
    for gid in GROUPS:
        elems = enumerate_group(field, gid)
        details.append(f"{gid}:{len(elems)}")
        ok = ok and len(elems) == group_order(q, gid)
        ok = ok and closure_spot_check(field, gid, pairs=100, seed=seed)
    if r == 1:
        for gid in ("o3", "so3"):
            ok = ok and sorted(enumerate_group(field, gid)) == sorted(
                brute_force_orthogonal(field, special=gid == "so3"))
        details.append("3^9-filter:match")
    add("enumeration", ok, ", ".join(details))

    if r <= 2:
        ok = True
        for tag in GROUPS:
            dp = weight_distribution_dp(field, tag).counts
            mw = weight_distribution_macwilliams(field, tag).counts
            n_total = code_length(q, tag)
            ok = ok and dp == mw and sum(dp) == 3 ** (n_total - r)
            for h in range(1, 5):
                ok = ok and pless_check(field, tag, h, counts=dp).equal
        add("weight-distributions", ok, "dp == macwilliams, totals 3^(N-r)")
        add("pless", ok, "h=1..4 for all codes")

    reps = prop_e_check(field, 4)
    add("prop-e", all(x.equal for x in reps), "m=0..4, all beta")

    if r == 1:
        ok = all(kloosterman_gl(field, t, a) == kloosterman_gl_brute(field, t, a)
                 for t in (0, 1, 2) for a in field.units())
        add("gl-kloosterman", ok, "recursion equals GL(t,3) brute force, t <= 2")

    kv = kloosterman_all(field)
    ok = all(kv[a] * kv[a] <= 4 * q for a in field.units())
    mt = moment_table(field, 8)
    ok2 = all(2 * mt.value("SK", h) == mt.value("T0SK", h) + mt.value("T12SK", h)
              for h in range(9))
    ok3 = True
    for tag in ("so3", "o3"):
        ws = dual_weights(field, tag)
        ok3 = ok3 and all(ws[a] == dual_weight_formula(field, tag, a)
                          for a in field.units())
    add("property-suite", ok and ok2 and ok3,
        "Weil bound; 2SK == T0SK + T12SK (h<=8); dual weights both paths")

    return rows


@verify_cmd.command("all")
@common_options
def verify_all(q_exponent, modulus, output, seed):
    """Run the whole battery appropriate to this field size."""
    field, cfg = _build(q_exponent, modulus, output, seed)
    rows = _wrap(lambda: acceptance_rows(field, seed))
    _emit(cfg, "verify all", rows)
    _finish(rows)


if __name__ == "__main__":
    main()
