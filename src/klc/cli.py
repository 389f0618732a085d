"""Command-line interface.

Every leaf command takes --q-exponent/--modulus to pick the field and
--output json|csv to pick the row format.  Every check is deterministic.
JSON output is one object per line with sorted keys, preceded by a header
row that names the command and the field and carries the only timestamp;
reruns with identical flags are byte-identical apart from that line.  CSV
output is a flat, lossy convenience rendering of the same rows.

Exit status: 0 on success, 1 when any emitted verification row carries a
false equal/pass flag, 2 on usage errors, 130 on Ctrl-C.  A `verify all`
check that fails or raises becomes its own failing row; the remaining
checks still run and the run exits 1.

The commands form one table: `main` is a Group of Groups of Commands, and
each Command lists its options as Option records, which one small parser
reads.  `main.main(args, prog_name)` runs a command and always ends in
SystemExit with its status, the call shape perfbench's tracer and the
tests' runner use.

`entry` is the process entry (`klc`, `python -m klc.cli`) and the only code
in klc that sets process state: the cyclic collector, the heap freeze, a
closed stdout pipe and Ctrl-C.  `main` sets none of it, because callers
such as a test runner run it inside their own long-lived process.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from collections.abc import Callable, Iterable
from datetime import datetime, timezone
from itertools import chain
from typing import NamedTuple

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


class UsageError(Exception):
    """Bad user input: main prints it as one `Error:` line and exits 2."""


class Option(NamedTuple):
    """One `--flag VALUE` of a leaf command, passed to its body as `dest`.

    kind is str, int, a range of ints, a tuple of choices, or bool for a
    flag without a value.  An option without a dest is accepted, checked
    and ignored, and --help leaves it out.
    """
    flag: str
    dest: str | None
    kind: object = str
    default: object = None
    required: bool = False
    help: str = ""


class Command(NamedTuple):
    """A leaf command: its help text, its options and run(**values)."""
    help: str
    options: tuple[Option, ...]
    run: Callable[..., None]

    usage = "[OPTIONS]"


class Group:
    """A named table of commands, each a Command or a further Group."""

    usage, options = "[OPTIONS] COMMAND [ARGS]...", ()

    def __init__(self, name: str, help: str):
        self.name, self.help, self.commands = name, help, {}

    def main(self, args=None, prog_name=None, standalone_mode=True):
        """Run the command that args (default sys.argv[1:]) name, then raise
        SystemExit with its status.  perfbench's tracer and the tests call
        it this way; every run is standalone."""
        args = list(sys.argv[1:] if args is None else args)
        path, cmd = [prog_name or self.name], self
        while isinstance(cmd, Group) and args and args[0] in cmd.commands:
            path.append(args.pop(0))
            cmd = cmd.commands[path[-1]]
        prog = " ".join(path)
        try:
            code = _invoke(prog, cmd, args)
        except UsageError as exc:
            sys.stderr.write(f"Usage: {prog} {cmd.usage}\nTry '{prog} --help' for help.\n"
                             f"\nError: {exc}\n")
            code = 2
        raise SystemExit(code)


def _invoke(prog: str, cmd: Command | Group, args: list[str]) -> int:
    """Run cmd on the rest of the arguments; the exit status."""
    if isinstance(cmd, Group):
        if not args:  # a bare group prints its help, as a usage error
            sys.stderr.write(_help(prog, cmd))
            return 2
        if args[0] != "--help":
            flag = args[0].partition("=")[0]
            raise UsageError(f"No such option '{flag}'." if flag.startswith("-")
                             else f"No such command '{args[0]}'.")
        values = None
    else:
        values = _parse(cmd.options, args)
    if values is None:
        sys.stdout.write(_help(prog, cmd))
    else:
        cmd.run(**values)
    return 0


def _parse(options: tuple[Option, ...], args: list[str]) -> dict | None:
    """The body's keyword arguments from args, or None for --help.

    Takes `--flag value` and `--flag=value`; a repeated option keeps its
    last value, and only that value is checked.
    """
    by_flag = {opt.flag: opt for opt in options}
    given = {}
    rest = iter(args)
    for arg in rest:
        flag, eq, text = arg.partition("=")
        opt = by_flag.get(flag)
        if arg == "--help":
            given[arg] = True
        elif opt is None:
            raise UsageError(f"No such option '{flag}'." if arg.startswith("-")
                             else f"Got unexpected extra argument ({arg})")
        elif opt.kind is bool:
            if eq:
                raise UsageError(f"Option '{flag}' does not take a value.")
            given[flag] = True
        elif eq:
            given[flag] = text
        else:
            given[flag] = next(rest, None)
            if given[flag] is None:
                raise UsageError(f"Option '{flag}' requires an argument.")
    if "--help" in given:
        return None
    values = {}
    for opt in options:
        if opt.flag in given:
            value = _convert(opt, given[opt.flag])
        elif opt.required:
            raise UsageError(f"Missing option '{opt.flag}'.")
        else:
            value = opt.default
        if opt.dest is not None:
            values[opt.dest] = value
    return values


def _convert(opt: Option, text):
    kind, bad = opt.kind, f"Invalid value for '{opt.flag}':"
    if kind is str or kind is bool:
        return text
    if isinstance(kind, tuple):
        if text not in kind:
            raise UsageError(f"{bad} {text!r} is not one of {', '.join(map(repr, kind))}.")
        return text
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"{bad} {text!r} is not a valid integer.") from None
    if kind is not int and value not in kind:
        raise UsageError(f"{bad} {value} is not in the range {kind.start}<=x<={kind.stop - 1}.")
    return value


def _help(prog: str, cmd: Command | Group) -> str:
    """The --help text: usage, help text, options and any subcommands."""
    rows = [_option_row(opt) for opt in cmd.options if opt.dest is not None]
    rows.append(("--help", "Show this message and exit."))
    text = (f"Usage: {prog} {cmd.usage}\n\n  {' '.join(cmd.help.split())}\n\n"
            f"Options:\n{_columns(rows)}")
    if isinstance(cmd, Group):
        text += "\nCommands:\n" + _columns((name, " ".join(sub.help.split()))
                                            for name, sub in sorted(cmd.commands.items()))
    return text


def _option_row(opt: Option) -> tuple[str, str]:
    kind = opt.kind
    meta = ("" if kind is bool else f" [{'|'.join(kind)}]" if isinstance(kind, tuple)
            else " TEXT" if kind is str else " INTEGER")
    notes = [] if opt.default is None or kind is bool else [f"default: {opt.default}"]
    if isinstance(kind, range):
        notes.append(f"{kind.start}<=x<={kind.stop - 1}")
    if opt.required:
        notes.append("required")
    return opt.flag + meta, f"{opt.help}  [{'; '.join(notes)}]".strip() if notes else opt.help


def _columns(rows: Iterable[tuple[str, str]]) -> str:
    rows = list(rows)
    width = max(len(left) for left, _ in rows)
    return "".join(f"  {left.ljust(width)}  {right}".rstrip() + "\n" for left, right in rows)


_FIELD_OPTIONS = (
    Option("--q-exponent", "q_exponent", range(1, _MAX_R + 1), 1, help="Exponent r of q = 3^r."),
    Option("--modulus", "modulus",
           help="Modulus coefficients, constant term first, comma separated."),
    Option("--output", "output", ("json", "csv"), "json", help="Row format."),
    # Ignored: perfbench/run.py's klc_args passes --seed N to every command,
    # and perfbench/ changes only with the benchmark (ROADMAP item 1).
    Option("--seed", None, int),
)


def _wrap(body):
    try:
        return body()
    except (UnsupportedScaleError, ValueError) as exc:
        raise UsageError(str(exc))
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        sys.exit(1)


def _field(q_exponent: int, modulus: str | None) -> Field:
    coeffs = None
    if modulus is not None:
        try:
            coeffs = [int(c) for c in modulus.split(",")]
        except ValueError:
            raise UsageError(f"--modulus expects comma-separated integers, got {modulus!r}")
    return _wrap(lambda: Field(q_exponent, coeffs))


def _emit(command: str, field: Field, output: str, rows: Iterable[dict]) -> None:
    if output == "json":
        header = {"event": "run", "command": command, "q": field.q,
                  "modulus": list(field.modulus),
                  "timestamp": datetime.now(timezone.utc).isoformat()}
        # buffered writes and one flush; rows are encoded as they come, so a
        # streamed body never holds them all
        encode = _ENCODER.encode
        sys.stdout.writelines(encode(row) + "\n" for row in chain((header,), rows))
        sys.stdout.flush()
        return
    rows = list(rows)  # the CSV header needs every key first
    if rows:
        import csv

        keys = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(sys.stdout, fieldnames=keys, restval="")
        writer.writeheader()
        writer.writerows(rows)


def leaf(group: Group, name: str, *options: Option):
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

        group.commands[name] = Command(body.__doc__, _FIELD_OPTIONS + options, run)
        return body

    return register


main = Group("klc", "Exact verification of Kloosterman-moment and ternary-code identities.")
charsums_cmd, group_cmd, code_cmd, verify_cmd = (Group(name, text) for name, text in (
    ("charsums", "Kloosterman sums, moments and related character sums."),
    ("group", "Enumeration, trace spectra and exponential sums of the groups."),
    ("code", "Weight data of the ternary codes attached to the groups."),
    ("verify", "Identity checkers; exit 1 when any reported side differs."),
))
for _sub in (charsums_cmd, group_cmd, code_cmd, verify_cmd):
    main.commands[_sub.name] = _sub

_GROUP = Option("--group", "gid", GROUPS, required=True)
_CODE = Option("--code", "tag", GROUPS, required=True)
_HMAX = Option("--hmax", "hmax", range(1, _MAX_HMAX + 1), 4)


@leaf(charsums_cmd, "moments", Option("--hmax", "hmax", range(0, _MAX_HMAX + 1), 8))
def charsums_moments(field, hmax):
    """Emit the four moment families for h = 0..hmax."""
    return moment_table(field, hmax).rows()


@leaf(charsums_cmd, "salie", Option("--hmax", "hmax", range(1, _SALIE_MAX_H + 1), 2))
def charsums_salie(field, hmax):
    """Check MK^h against the Salie recurrence (stated for prime q) at every q;
    exit 1 when a row is unequal."""
    return [{"q": x.q, "h": x.h, "lhs": str(x.lhs), "rhs": str(x.rhs), "equal": x.equal}
            for x in salie_check(field, hmax)]


@leaf(charsums_cmd, "prop-e", Option("--mmax", "mmax", range(0, _DELTA_MAX_M + 1), 4))
def charsums_prop_e(field, mmax):
    """Check the twisted moment identity against the tuple counts delta."""
    return [{"q": x.q, "m": x.m, "beta": x.beta, "lhs": str(x.lhs), "rhs": str(x.rhs),
             "equal": x.equal} for x in prop_e_check(field, mmax)]


@leaf(group_cmd, "enumerate", _GROUP,
      Option("--oracle", "oracle", bool, False,
             help="Cross-check against the 3^9 / 3^4 filter (q = 3 only)."))
def group_enumerate(field, gid, oracle):
    """Emit the group elements as rows of enc-integer grids (q <= 27)."""
    if oracle and field.q != 3:
        raise UsageError("--oracle requires --q-exponent 1")
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
      Option("--a", "a_enc", int, required=True, help="Unit a as an enc integer."))
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
      Option("--method", "method", ("dp", "macwilliams"), "dp"),
      Option("--truncate", "truncate", int, help="Emit only C_0..C_J (dp method only)."))
def code_spectrum(field, tag, method, truncate):
    """Weight distribution of the code by the chosen method."""
    if method == "dp":
        return weight_distribution_dp(field, tag, truncate_at=truncate).rows(field.q)
    if truncate is not None:
        raise UsageError("--truncate applies to the dp method only")
    return weight_distribution_macwilliams(field, tag).rows(field.q)


@leaf(code_cmd, "pless", _CODE,
      Option("--h", "h", range(0, 9), required=True))
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
    from .battery import battery_rows  # only this command loads the battery

    return battery_rows(field)


def entry() -> None:
    """Run the CLI as a process: `main` with the cyclic collector off, then
    gc.freeze() on the way out.

    A command builds tuples of ints and of tuples, such as the 39,312
    elements of O(3, 27), and leaves no cycles, so a collection during the
    command would free nothing.  CPython still runs full collections
    while it shuts down, even with the collector disabled; frozen objects
    are left out of them.  After `verify all --q-exponent 3` they would
    walk about 75k objects.

    A reader that goes away (`klc ... | head`) ends the command with exit 1
    and nothing on stderr; Ctrl-C prints `Aborted!` and exits 130.
    """
    gc.disable()
    try:
        main.main()
    except BrokenPipeError:
        # drop the rest of the output, also the flush at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        sys.stderr.write("Aborted!\n")
        sys.exit(130)
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
