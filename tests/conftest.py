from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from typing import NamedTuple

import pytest

from klc.codes import weight_distribution_dp, weight_distribution_macwilliams
from klc.field import Field


class Result(NamedTuple):
    exit_code: int
    output: str
    exception: BaseException | None


class CliRunner:
    """Runs klc.cli.main in process and catches how it ends.

    output is stdout and stderr interleaved as written, with CSV's CRLF
    line ends read as LF.  exit_code comes from SystemExit, and exception holds a
    SystemExit with a nonzero code or any other exception, which counts as
    exit 1."""

    def invoke(self, cli, args):
        out, exception, code = StringIO(), None, 0
        with redirect_stdout(out), redirect_stderr(out):
            try:
                cli.main(args=args, prog_name=cli.name)
            except SystemExit as exc:
                code = exc.code or 0
                exception = exc if code else None
            except Exception as exc:
                exception, code = exc, 1
        return Result(code, out.getvalue().replace("\r\n", "\n"), exception)


@pytest.fixture(scope="session")
def f3():
    return Field(1)


@pytest.fixture(scope="session")
def f9():
    return Field(2)


@pytest.fixture(scope="session")
def f27():
    return Field(3)


@pytest.fixture(scope="session")
def q9_dists(f9):
    """Full q=9 weight distributions by both methods, computed once."""
    out = {}
    for tag in ("so3", "o3", "sp2"):
        out[(tag, "dp")] = weight_distribution_dp(f9, tag).counts
        out[(tag, "mw")] = weight_distribution_macwilliams(f9, tag).counts
    return out
