"""The `verify all` battery: its rows, their order, and failures that stay on their own rows."""

import json
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import klc.battery as battery
import klc.cli as cli
from klc.errors import VerificationError

# The check rows `verify all` prints at each r, in order.
NAMES = {
    1: ["corollary-n", "theorem-a1", "theorem-a2", "theorem-l", "gauss-sums",
        "trace-spectra", "enumeration", "weight-distributions", "pless", "prop-e",
        "gl-kloosterman", "property-suite"],
    2: ["corollary-n", "theorem-a1", "theorem-a2", "theorem-l", "gauss-sums",
        "trace-spectra", "enumeration", "weight-distributions", "pless", "prop-e",
        "property-suite"],
    3: ["corollary-n", "theorem-a1", "theorem-a2", "gauss-sums", "trace-spectra",
        "enumeration", "prop-e", "property-suite"],
}

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


@pytest.mark.parametrize("r", [1, 3])
def test_check_names_and_order(r):
    code, rows = _verify_all("--q-exponent", str(r))
    assert code == 0
    assert [row["check"] for row in rows[1:]] == NAMES[r]
    assert all(row["pass"] is True and row["q"] == 3**r and "detail" in row
               for row in rows[1:])


def test_table_names_at_r2():
    assert [name for names, largest, _ in battery.CHECKS if largest >= 2
            for name in names] == NAMES[2]


def test_bound_is_the_largest_entry_bound():
    assert max(largest for _, largest, _ in battery.CHECKS) == 3
    result = CliRunner().invoke(cli.main, ["verify", "all", "--q-exponent", "4"])
    assert result.exit_code == 2
    assert "Error: verify all supports r in {1, 2, 3}" in result.output


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
    assert [row["check"] for row in rows[1:]] == NAMES[1]
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
