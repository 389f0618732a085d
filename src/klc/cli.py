"""Command-line interface.

Every leaf command takes --q-exponent/--modulus to pick the field and
--output json|csv to pick the row format.  Every check is deterministic.
JSON output is one object per line with sorted keys, preceded by a header
row that names the command and the field and carries the only timestamp;
reruns with identical flags are byte-identical apart from that line.  CSV
output is a flat, lossy convenience rendering of the same rows.

Exit status: 0 on success, 1 when any emitted verification row carries a
false equal/pass flag, 2 on usage errors.  A `verify all` check that fails
or raises becomes its own failing row; the remaining checks still run and
the run exits 1.

`entry` is the process entry (`klc`, `python -m klc.cli`): it runs `main`
and then freezes the heap, so the full collections CPython runs while it
shuts down skip every object the command built.  `main` itself sets no
collector policy, because callers such as click's CliRunner run it inside
their own long-lived process.
"""

from __future__ import annotations

import csv
import gc
import json
import sys
from collections.abc import Iterable
from datetime import datetime, timezone
from itertools import chain

import click

from .battery import battery_rows
from .charsums import _DELTA_MAX_M, _SALIE_MAX_H, moment_table, prop_e_check, salie_check
from .codes import (dual_spectrum, pless_check, weight_distribution_dp,
                    weight_distribution_macwilliams)
from .errors import UnsupportedScaleError, VerificationError
from .field import _MAX_R, Field
from .groups import (GROUPS, brute_force_group, enumerate_group, gauss_sum_closed,
                     gauss_sum_enumerated, trace_spectrum, trace_spectrum_closed)
from .moments import _MAX_HMAX, corollary_n, theorem_a1, theorem_a2, theorem_l

_FLAG_KEYS = ("equal", "pass")
# json.dumps builds a new encoder per call when given any argument
_ENCODER = json.JSONEncoder(sort_keys=True)

_FIELD_OPTIONS = (
    click.option("--q-exponent", type=click.IntRange(1, _MAX_R), default=1,
                 show_default=True, help="Exponent r of q = 3^r."),
    click.option("--modulus", type=str, default=None,
                 help="Modulus coefficients, constant term first, comma separated."),
    click.option("--output", type=click.Choice(["json", "csv"]), default="json",
                 show_default=True, help="Row format."),
    # Ignored: perfbench/run.py's klc_args passes --seed N to every command,
    # and perfbench/ changes only with the benchmark (ROADMAP items 1b, 17).
    click.option("--seed", type=int, hidden=True, expose_value=False),
)


def _wrap(body):
    try:
        return body()
    except (UnsupportedScaleError, ValueError) as exc:
        raise click.UsageError(str(exc))
    except VerificationError as exc:
        click.echo(f"verification failure: {exc}", err=True)
        sys.exit(1)


def _field(q_exponent: int, modulus: str | None) -> Field:
    coeffs = None
    if modulus is not None:
        try:
            coeffs = [int(c) for c in modulus.split(",")]
        except ValueError:
            raise click.UsageError(f"--modulus expects comma-separated integers, got {modulus!r}")
    return _wrap(lambda: Field(q_exponent, coeffs))


def _emit(command: str, field: Field, output: str, rows: Iterable[dict]) -> None:
    if output == "json":
        header = {"event": "run", "command": command, "q": field.q,
                  "modulus": list(field.modulus),
                  "timestamp": datetime.now(timezone.utc).isoformat()}
        # buffered writes and one flush, where click.echo flushes every line;
        # rows are encoded as they come, so a streamed body never holds them all
        encode = _ENCODER.encode
        sys.stdout.writelines(encode(row) + "\n" for row in chain((header,), rows))
        sys.stdout.flush()
        return
    rows = list(rows)  # the CSV header needs every key first
    if rows:
        keys = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(sys.stdout, fieldnames=keys, restval="")
        writer.writeheader()
        writer.writerows(rows)


def leaf(group: click.Group, name: str, *options):
    """Register body(field, **opts) -> rows as the command `group name`.

    The command takes the shared field options and then `options`, builds
    the field, runs the body with errors mapped by _wrap, writes the rows
    and exits 1 if any row has a false equal/pass flag.  The rows may be
    any iterable of dicts, such as a generator that builds each row as it
    is written; the body's own work, and so every error _wrap maps, must
    then happen before it returns.
    """
    command = f"{group.name} {name}"

    def register(body):
        def run(q_exponent, modulus, output, **opts):
            field = _field(q_exponent, modulus)
            rows = _wrap(lambda: body(field, **opts))
            flagged = []

            def noted():
                for row in rows:
                    if any(row.get(key) is False for key in _FLAG_KEYS):
                        flagged.append(row)
                    yield row

            _emit(command, field, output, noted())
            if flagged:
                sys.exit(1)

        for option in reversed(_FIELD_OPTIONS + options):
            run = option(run)
        group.command(name, help=body.__doc__)(run)
        return body

    return register


@click.group()
def main():
    """Exact verification of Kloosterman-moment and ternary-code identities."""


charsums_cmd, group_cmd, code_cmd, verify_cmd = (click.Group(name, help=text) for name, text in (
    ("charsums", "Kloosterman sums, moments and related character sums."),
    ("group", "Enumeration, trace spectra and exponential sums of the groups."),
    ("code", "Weight data of the ternary codes attached to the groups."),
    ("verify", "Identity checkers; exit 1 when any reported side differs."),
))
for _sub in (charsums_cmd, group_cmd, code_cmd, verify_cmd):
    main.add_command(_sub)

_GROUP = click.option("--group", "gid", type=click.Choice(GROUPS), required=True)
_CODE = click.option("--code", "tag", type=click.Choice(GROUPS), required=True)
_HMAX = click.option("--hmax", type=click.IntRange(1, _MAX_HMAX), default=4, show_default=True)


@leaf(charsums_cmd, "moments",
      click.option("--hmax", type=click.IntRange(0, _MAX_HMAX), default=8, show_default=True))
def charsums_moments(field, hmax):
    """Emit the four moment families for h = 0..hmax."""
    return moment_table(field, hmax).rows()


@leaf(charsums_cmd, "salie",
      click.option("--hmax", type=click.IntRange(1, _SALIE_MAX_H), default=2, show_default=True))
def charsums_salie(field, hmax):
    """Check MK^h against the Salie recurrence (stated for prime q) at every q;
    exit 1 when a row is unequal."""
    return [{"q": x.q, "h": x.h, "lhs": str(x.lhs), "rhs": str(x.rhs), "equal": x.equal}
            for x in salie_check(field, hmax)]


@leaf(charsums_cmd, "prop-e",
      click.option("--mmax", type=click.IntRange(0, _DELTA_MAX_M), default=4, show_default=True))
def charsums_prop_e(field, mmax):
    """Check the twisted moment identity against the tuple counts delta."""
    return [{"q": x.q, "m": x.m, "beta": x.beta, "lhs": str(x.lhs), "rhs": str(x.rhs),
             "equal": x.equal} for x in prop_e_check(field, mmax)]


@leaf(group_cmd, "enumerate", _GROUP,
      click.option("--oracle", is_flag=True,
                   help="Cross-check against the 3^9 / 3^4 filter (q = 3 only)."))
def group_enumerate(field, gid, oracle):
    """Emit the group elements as rows of enc-integer grids (q <= 27)."""
    if oracle and field.q != 3:
        raise click.UsageError("--oracle requires --q-exponent 1")
    elems = enumerate_group(field, gid)
    # one row dict per element, built as it is written: O(3, 27) has 39,312
    rows = ({"index": i, **{f"e{a}{b}": v for a, line in enumerate(w)
                            for b, v in enumerate(line)}}
            for i, w in enumerate(elems))
    if not oracle:
        return rows
    agree = sorted(elems) == sorted(brute_force_group(field, gid))
    return chain(rows, [{"oracle": "brute-force filter", "pass": agree}])


@leaf(group_cmd, "spectrum", _GROUP)
def group_spectrum(field, gid):
    """Trace spectrum by enumeration, checked against the closed forms."""
    enumerated = trace_spectrum(field, gid)
    closed = trace_spectrum_closed(field, gid)
    rows = [{"gid": gid, "q": field.q, "beta": beta, "enumerated": n, "closed": c,
             "equal": n == c} for beta, (n, c) in enumerate(zip(enumerated, closed))]
    all_positive = min(enumerated) > 0
    rows.append({"gid": gid, "q": field.q, "all_positive": all_positive,
                 "pass": enumerated == closed and all_positive})
    return rows


@leaf(group_cmd, "gauss", _GROUP,
      click.option("--a", "a_enc", type=int, required=True, help="Unit a as an enc integer."))
def group_gauss(field, gid, a_enc):
    """The exponential sum sum_w lambda(a Tr w), two ways."""
    closed = gauss_sum_closed(field, gid, a_enc)  # rejects a non-unit a
    spectrum = gauss_sum_enumerated(field, gid, a_enc)
    return [{"gid": gid, "q": field.q, "a": a_enc,
             "spectrum_a": str(spectrum.a), "spectrum_b": str(spectrum.b),
             "closed_a": str(closed.a), "closed_b": str(closed.b),
             "equal": spectrum == closed}]


@leaf(code_cmd, "dual-spectrum", _CODE)
def code_dual_spectrum(field, tag):
    """Weight spectrum of the q-word dual code."""
    return [{"code": tag, "q": field.q, "weight": w, "count": c}
            for w, c in dual_spectrum(field, tag).items()]


@leaf(code_cmd, "spectrum", _CODE,
      click.option("--method", type=click.Choice(["dp", "macwilliams"]), default="dp",
                   show_default=True),
      click.option("--truncate", type=int, default=None,
                   help="Emit only C_0..C_J (dp method only)."))
def code_spectrum(field, tag, method, truncate):
    """Weight distribution of the code by the chosen method."""
    if method == "dp":
        return weight_distribution_dp(field, tag, truncate_at=truncate).rows(field.q)
    if truncate is not None:
        raise click.UsageError("--truncate applies to the dp method only")
    return weight_distribution_macwilliams(field, tag).rows(field.q)


@leaf(code_cmd, "pless", _CODE,
      click.option("--h", "h", type=click.IntRange(0, 8), required=True))
def code_pless(field, tag, h):
    """Check the h-th Pless power moment for the code."""
    rep = pless_check(field, tag, h)
    return [{"code": rep.code, "q": rep.q, "h": rep.h, "lhs": str(rep.lhs),
             "rhs": str(rep.rhs), "equal": rep.equal}]


@leaf(verify_cmd, "theorem-a1", _HMAX)
def verify_a1(field, hmax):
    """Moment recursion from the SO(3,q) code."""
    return [rep.row() for rep in theorem_a1(field, hmax)]


@leaf(verify_cmd, "theorem-a2", _HMAX)
def verify_a2(field, hmax):
    """Moment recursion from the O(3,q) code."""
    return [rep.row() for rep in theorem_a2(field, hmax)]


@leaf(verify_cmd, "theorem-l", _HMAX)
def verify_l(field, hmax):
    """Square-moment identity from the Sp(2,q) code."""
    return [rep.row() for rep in theorem_l(field, hmax)]


@leaf(verify_cmd, "corollary-n")
def verify_n(field):
    """Closed forms of the first moments."""
    return [rep.row() for rep in corollary_n(field)]


@leaf(verify_cmd, "all")
def verify_all(field):
    """Run the whole battery appropriate to this field size."""
    return battery_rows(field)


def entry() -> None:
    """Run the CLI as a process: `main`, then gc.freeze() on the way out.

    CPython runs full collections while it shuts down, even with the
    collector disabled; frozen objects are left out of them.  After
    `verify all --q-exponent 3` they would walk about 75k objects.
    """
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
