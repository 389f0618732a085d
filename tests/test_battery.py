"""The `verify all` battery: its rows, their order, and failures that stay on their own rows."""

import json
from types import SimpleNamespace

import pytest
from conftest import CliRunner

import klc.battery as battery
import klc.cli as cli
from klc.errors import VerificationError
from klc.field import _MAX_R

# The check rows `verify all` prints at every r, in order, each with the
# largest r at which it runs; past it the row says it was skipped.
LARGEST_R = {
    "corollary-n": 8, "theorem-a1": 7, "theorem-a2": 7, "theorem-l": 7, "gauss-sums": 3,
    "trace-spectra": 3, "enumeration": 3, "weight-distributions": 2, "pless": 2,
    "prop-e": 6, "gl-kloosterman": 2, "property-suite": 3,
}
NAMES = list(LARGEST_R)

# For each table entry, one library function its check calls through the
# battery module.
BREAKS = {
    ("corollary-n",): "corollary_n",
    ("theorem-a1",): "theorem_a1",
    ("theorem-a2",): "theorem_a2",
    ("theorem-l",): "theorem_l",
    ("gauss-sums",): "gauss_sum_closed",
    ("trace-spectra",): "trace_spectrum_closed",
    ("enumeration",): "enumerate_group",
    ("weight-distributions", "pless"): "weight_distribution_dp",
    ("prop-e",): "prop_e_check",
    ("gl-kloosterman",): "kloosterman_gl_brute",
    ("property-suite",): "moment_table",
}


def _verify_all(*args):
    result = CliRunner().invoke(cli.main, ["verify", "all", *args])
    return result.exit_code, [json.loads(ln) for ln in result.output.splitlines() if ln]


@pytest.mark.parametrize("r", [1, 3, 4, 5, 8])
def test_check_names_and_order(r):
    """Every name once, in table order: a passing verdict up to its largest
    r, a skip with no pass key past it."""
    code, rows = _verify_all("--q-exponent", str(r))
    assert code == 0
    assert [row["check"] for row in rows[1:]] == NAMES
    for row in rows[1:]:
        largest = LARGEST_R[row["check"]]
        if r > largest:
            assert row == {"check": row["check"], "q": 3**r, "skipped": f"runs at r <= {largest}"}
        else:
            assert row["pass"] is True and row["q"] == 3**r and "detail" in row, row
            assert "skipped" not in row


def test_largest_r_of_each_name():
    assert {name: largest for names, largest, _ in battery.CHECKS
            for name in names} == LARGEST_R


def test_every_largest_r_is_in_the_q_exponent_range():
    assert all(1 <= largest <= _MAX_R for _, largest, _ in battery.CHECKS)


def test_bound_is_the_largest_entry_bound():
    """The --q-exponent range is the only bound on r, and some row runs at
    its top."""
    assert max(largest for _, largest, _ in battery.CHECKS) == _MAX_R == 8
    result = CliRunner().invoke(cli.main, ["verify", "all", "--q-exponent", "9"])
    assert result.exit_code == 2
    assert "Error: Invalid value for '--q-exponent': 9 is not in the range 1<=x<=8." \
        in result.output


def test_every_entry_has_a_break():
    assert sorted(BREAKS) == sorted(names for names, _, _ in battery.CHECKS)


@pytest.mark.parametrize("names", list(BREAKS), ids="/".join)
def test_raising_entry_fails_only_its_rows(names, monkeypatch):
    message = f"{BREAKS[names]} broken"

    def broken(*args, **kwargs):
        raise VerificationError(message)

    monkeypatch.setattr(battery, BREAKS[names], broken)
    code, rows = _verify_all()
    assert code == 1
    assert rows[0]["event"] == "run" and rows[0]["command"] == "verify all"
    assert [row["check"] for row in rows[1:]] == NAMES
    for row in rows[1:]:
        if row["check"] in names:
            assert row == {"check": row["check"], "q": 3, "pass": False, "error": message}
        else:
            assert row["pass"] is True and "detail" in row, row


def test_pless_row_reports_only_pless(monkeypatch):
    """A DP/MacWilliams mismatch fails weight-distributions, and pless still passes."""
    monkeypatch.setattr(battery, "weight_distribution_macwilliams",
                        lambda field, tag: SimpleNamespace(counts=()))
    code, rows = _verify_all()
    assert code == 1
    verdicts = {row["check"]: row["pass"] for row in rows[1:]}
    assert verdicts.pop("weight-distributions") is False
    assert all(verdicts.values())
