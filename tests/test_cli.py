import ast
import csv
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import CliRunner

import klc
import klc.cli as cli
from klc.eisenstein import ZETA
from klc.field import Field
from klc.groups import group_order
from klc.moments import RecursionReport


@pytest.fixture()
def runner():
    return CliRunner()


def _lines(result):
    return [ln for ln in result.output.splitlines() if ln]


def _rows(result):
    """Parsed JSON rows, header first."""
    return [json.loads(ln) for ln in _lines(result)]


# ---------------------------------------------------------------------------
# shape of the output contract


def test_help_lists_groups(runner):
    result = runner.invoke(cli.main, ["--help"])
    assert result.exit_code == 0
    for name in ("charsums", "group", "code", "verify"):
        assert name in result.output


def test_json_header_and_rows(runner):
    result = runner.invoke(cli.main, ["verify", "corollary-n"])
    assert result.exit_code == 0
    rows = _rows(result)
    header = rows[0]
    assert header["event"] == "run"
    assert header["command"] == "verify corollary-n"
    assert header["q"] == 3 and header["modulus"] == [0, 1]
    assert "timestamp" in header
    body = rows[1:]
    assert [row["family"] for row in body] == ["SK", "T0SK", "T12SK"]
    assert all(row["equal"] for row in body)
    assert all("/" in row["lhs"] for row in body)
    # keys are emitted sorted
    for ln in _lines(result):
        keys = list(json.loads(ln))
        assert keys == sorted(keys)


def test_reruns_identical_apart_from_header(runner):
    args = ["charsums", "moments", "--hmax", "4", "--q-exponent", "2"]
    a = runner.invoke(cli.main, args)
    b = runner.invoke(cli.main, args)
    assert a.exit_code == b.exit_code == 0
    assert _lines(a)[1:] == _lines(b)[1:]
    assert len(_lines(a)) == 1 + 4 * 5


def test_csv_output(runner):
    result = runner.invoke(cli.main, ["code", "spectrum", "--code", "so3",
                                      "--output", "csv"])
    assert result.exit_code == 0
    lines = _lines(result)
    assert lines[0] == "code,count,j,q"
    assert len(lines) == 1 + 25
    assert lines[1].startswith("so3,1,0,3")


def test_csv_verify_all_has_a_skipped_column(runner):
    """A skipped row leaves pass and detail empty, a verdict leaves skipped empty."""
    result = runner.invoke(cli.main, ["verify", "all", "--q-exponent", "4", "--output", "csv"])
    assert result.exit_code == 0
    lines = _lines(result)
    assert lines[0] == "check,detail,pass,q,skipped"
    rows = {row["check"]: row for row in csv.DictReader(lines)}
    assert rows["gauss-sums"] == {"check": "gauss-sums", "detail": "", "pass": "", "q": "81",
                                  "skipped": "runs at r <= 3"}
    assert rows["theorem-a1"]["pass"] == "True" and rows["theorem-a1"]["skipped"] == ""


# ---------------------------------------------------------------------------
# charsums commands


def test_moments_row_values(runner):
    result = runner.invoke(cli.main, ["charsums", "moments", "--hmax", "1"])
    rows = _rows(result)[1:]
    vals = {(row["family"], row["h"]): row["value"] for row in rows}
    assert vals[("MK", 1)] == "1"
    assert vals[("SK", 1)] == "-1"
    assert vals[("T12SK", 0)] == "2"


def test_salie_passes_at_q3_and_q9(runner):
    for r in ("1", "2"):
        result = runner.invoke(cli.main, ["charsums", "salie", "--hmax", "4",
                                          "--q-exponent", r])
        assert result.exit_code == 0
        assert all(row["equal"] for row in _rows(result)[1:])


def test_salie_at_q6561(runner):
    """M_(h-1) is a pair count over at most q - 1 units, so q = 3^8 runs at
    --hmax 3 and 4 well inside the budget, every row equal."""
    for hmax in ("3", "4"):
        t0 = time.perf_counter()
        result = runner.invoke(cli.main, ["charsums", "salie", "--hmax", hmax,
                                          "--q-exponent", "8"])
        assert time.perf_counter() - t0 < 10.0
        assert result.exit_code == 0
        body = _rows(result)[1:]
        assert [row["h"] for row in body] == list(range(1, int(hmax) + 1))
        assert all(row["equal"] for row in body)


def test_prop_e_rows(runner):
    result = runner.invoke(cli.main, ["charsums", "prop-e", "--mmax", "2"])
    assert result.exit_code == 0
    body = _rows(result)[1:]
    assert len(body) == 3 * 3  # m = 0..2, beta in GF(3)
    assert all(row["equal"] for row in body)


# ---------------------------------------------------------------------------
# group commands


@pytest.mark.parametrize("gid", ["so3", "o3", "sp2"])
def test_enumerate_with_oracle(runner, gid):
    result = runner.invoke(cli.main, ["group", "enumerate", "--group", gid,
                                      "--oracle"])
    assert result.exit_code == 0
    body = _rows(result)[1:]
    order = group_order(3, gid)
    assert len(body) == order + 1  # elements, oracle row
    assert body[0]["index"] == 0 and body[0]["e00"] == (0 if gid == "sp2" else 1)
    assert body[-2]["index"] == order - 1
    assert body[-1] == {"oracle": "brute-force filter", "pass": True}


def test_enumerate_oracle_mismatch_exits_one(runner, monkeypatch):
    monkeypatch.setattr(cli, "brute_force_group", lambda field, gid: [])
    result = runner.invoke(cli.main, ["group", "enumerate", "--group", "sp2", "--oracle"])
    assert result.exit_code == 1
    assert _rows(result)[-1] == {"oracle": "brute-force filter", "pass": False}


def test_enumerate_refuses_large_q(runner):
    """The rows come from the materialized group, so q <= 27 bounds them."""
    t0 = time.perf_counter()
    result = runner.invoke(cli.main, ["group", "enumerate", "--group", "o3",
                                      "--q-exponent", "4"])
    assert time.perf_counter() - t0 < 10.0
    assert result.exit_code == 2
    assert "Error:" in result.output and "q <= 27" in result.output
    assert isinstance(result.exception, SystemExit)


def test_enumerate_oracle_needs_q3(runner):
    result = runner.invoke(cli.main, ["group", "enumerate", "--group", "so3",
                                      "--oracle", "--q-exponent", "2"])
    assert result.exit_code == 2


def test_enumerate_streams_its_rows():
    """The body enumerates eagerly but builds each row dict only as it is
    written, so the 39,312 rows of O(3, 27) are never held at once."""
    rows = cli.group_enumerate(Field(2), "sp2", False)
    assert iter(rows) is rows
    assert next(rows) == {"index": 0, "e00": 0, "e01": 1, "e10": 2, "e11": 0}
    assert sum(1 for _ in rows) == group_order(9, "sp2") - 1


def test_spectrum_command(runner):
    result = runner.invoke(cli.main, ["group", "spectrum", "--group", "o3"])
    assert result.exit_code == 0
    body = _rows(result)[1:]
    assert [row["enumerated"] for row in body[:-1]] == [18, 15, 15]
    assert body[-1]["pass"] is True


def test_gauss_command(runner):
    result = runner.invoke(cli.main, ["group", "gauss", "--group", "so3", "--a", "1"])
    assert result.exit_code == 0
    row = _rows(result)[1]
    assert (row["closed_a"], row["closed_b"]) == ("0", "-3")
    assert row["equal"] is True


def test_gauss_rejects_nonunit(runner):
    for a in ("0", "3", "5"):
        result = runner.invoke(cli.main, ["group", "gauss", "--group", "so3", "--a", a])
        assert result.exit_code == 2, a
        assert "a must be a unit" in result.output


# ---------------------------------------------------------------------------
# code commands


def test_spectrum_methods_agree(runner):
    dp = runner.invoke(cli.main, ["code", "spectrum", "--code", "sp2", "--method", "dp"])
    mw = runner.invoke(cli.main, ["code", "spectrum", "--code", "sp2",
                                  "--method", "macwilliams"])
    assert dp.exit_code == mw.exit_code == 0
    assert _lines(dp)[1:] == _lines(mw)[1:]


def test_truncate_only_for_dp(runner):
    result = runner.invoke(cli.main, ["code", "spectrum", "--code", "so3",
                                      "--method", "macwilliams", "--truncate", "4"])
    assert result.exit_code == 2
    ok = runner.invoke(cli.main, ["code", "spectrum", "--code", "so3",
                                  "--method", "dp", "--truncate", "4"])
    assert ok.exit_code == 0
    assert len(_lines(ok)) == 1 + 5


def test_full_spectrum_guard_is_a_usage_error(runner):
    for method in ("dp", "macwilliams"):
        result = runner.invoke(cli.main, ["code", "spectrum", "--code", "so3",
                                          "--method", method, "--q-exponent", "3"])
        assert result.exit_code == 2, method


# --truncate calls the weight DP refuses with exit 2 and one Error: line: a
# truncation that keeps every count (cap >= N) is the full table and meets
# its N bound, and one whose packed state is past the DP's byte budget is
# refused before the state is built.
TRUNCATE_REFUSALS = [
    (["code", "spectrum", "--code", "so3", "--q-exponent", "3", "--truncate", "100000"],
     "Error: full distribution bounded at N <= 2000 (asked for N = 19656); "
     "truncate the dp method instead"),
    (["code", "spectrum", "--code", "so3", "--q-exponent", "8", "--truncate", "100000"],
     "Error: weight DP state bounded at 8388608 bytes (asked for 424 columns of 100001 "
     "weights at q = 6561); truncate lower"),
]


def test_truncate_cannot_get_round_the_bounds(runner):
    for args, error in TRUNCATE_REFUSALS:
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 2, args
        assert isinstance(result.exception, SystemExit), args
        assert "Traceback" not in result.output, args
        assert [ln for ln in result.output.splitlines() if ln.startswith("Error:")] == [error]


def test_dual_spectrum_command(runner):
    result = runner.invoke(cli.main, ["code", "dual-spectrum", "--code", "o3"])
    body = _rows(result)[1:]
    assert body == [
        {"code": "o3", "q": 3, "weight": 0, "count": 1},
        {"code": "o3", "q": 3, "weight": 30, "count": 2},
    ]


def test_pless_command(runner):
    result = runner.invoke(cli.main, ["code", "pless", "--code", "sp2", "--h", "3"])
    assert result.exit_code == 0
    row = _rows(result)[1]
    assert row["equal"] is True and row["lhs"] == row["rhs"]


# ---------------------------------------------------------------------------
# verify commands and exit codes


def test_verify_all_r1(runner):
    result = runner.invoke(cli.main, ["verify", "all"])
    assert result.exit_code == 0
    body = _rows(result)[1:]
    names = [row["check"] for row in body]
    assert "corollary-n" in names and "gl-kloosterman" in names
    assert all(row["pass"] for row in body)


def test_verify_all_rejects_large_r(runner):
    result = runner.invoke(cli.main, ["verify", "all", "--q-exponent", "9"])
    assert result.exit_code == 2


def test_verify_theorems_exit_zero(runner):
    for name in ("theorem-a1", "theorem-a2", "theorem-l"):
        result = runner.invoke(cli.main, ["verify", name, "--hmax", "5"])
        assert result.exit_code == 0, result.output
        assert all(row["equal"] for row in _rows(result)[1:])


@pytest.mark.parametrize("r", [7, 8])
def test_corollary_n_at_large_q(runner, r):
    result = runner.invoke(cli.main, ["verify", "corollary-n", "--q-exponent", str(r)])
    assert result.exit_code == 0, result.output
    body = _rows(result)[1:]
    assert [row["family"] for row in body] == ["SK", "T0SK", "T12SK"]
    assert all(row["equal"] and row["lhs"] == row["rhs"] for row in body)


def test_moments_at_q6561(runner):
    result = runner.invoke(cli.main, ["charsums", "moments", "--hmax", "2",
                                      "--q-exponent", "8"])
    assert result.exit_code == 0, result.output
    value = {(row["family"], row["h"]): int(row["value"]) for row in _rows(result)[1:]}
    for h in range(3):
        assert 2 * value[("SK", h)] == value[("T0SK", h)] + value[("T12SK", h)]


def _klc_env():
    """The environment of a child interpreter that imports this klc."""
    src = str(Path(klc.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fresh_python(code):
    """Stdout of code run in a fresh interpreter that imports this klc."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_klc_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_kloosterman_table_is_not_built_at_setup():
    """Importing the CLI and building a field leave the K table to the command."""
    assert _fresh_python("import klc.cli\n"
                         "from klc.charsums import kloosterman_all\n"
                         "from klc.field import Field\n"
                         "Field(7)\n"
                         "print(kloosterman_all.cache_info().currsize)") == "0\n"


def test_cli_import_loads_no_dataclasses_or_hashlib():
    """Every command pays for what importing the CLI loads.  The records are
    NamedTuples and moments._digest imports hashlib when it runs, so the
    import adds neither module to what a bare interpreter holds."""
    probe = "import sys\nprint(sorted({'dataclasses', 'hashlib'} & set(sys.modules)))"
    assert _fresh_python("import klc.cli\n" + probe) == _fresh_python(probe)


def test_verify_all_loads_no_hashlib():
    """verify all reads only the verdicts, so it computes no digest and, at
    r = 1, 2 and 3, never loads hashlib; verify corollary-n and theorem-a1
    print digests, load it, and print the digests pinned at the parent
    commit d09c0b4."""
    out = _fresh_python(
        "import contextlib, io, json, sys\n"
        "import klc.cli as cli\n"
        "def run(*args):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        try:\n"
        "            cli.main.main(list(args), 'klc')\n"
        "        except SystemExit as exc:\n"
        "            assert exc.code == 0, args\n"
        "    rows = [json.loads(ln) for ln in out.getvalue().splitlines()[1:]]\n"
        "    return sorted({row.get('inputs_digest') for row in rows}, key=str)\n"
        "def loaded():\n"
        "    return sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
        "print([run('verify', 'all', '--q-exponent', r) for r in '123'], loaded())\n"
        "print(run('verify', 'corollary-n'), loaded())\n"
        "print(run('verify', 'theorem-a1', '--hmax', '2'), loaded())\n")
    assert out.splitlines() == [
        "[[None], [None], [None]] []",
        "['ebfb985ab4b2'] ['_hashlib', 'hashlib']",
        "['28c67847f248'] ['_hashlib', 'hashlib']",
    ]


def test_cli_import_loads_no_click_csv_or_battery():
    """klc uses no click; csv loads on the CSV path and the battery in
    `verify all`, so other commands do not pay for them."""
    assert _fresh_python("import sys\nimport klc.cli\n"
                         "print(sorted({'click', 'csv', 'klc.battery'} & set(sys.modules)))"
                         ) == "[]\n"


def test_entry_runs_without_click():
    """The process entry exits 0 with the pinned body when click cannot be imported."""
    out = _fresh_python("import sys\n"
                        "sys.modules['click'] = None\n"
                        "import klc.cli as cli\n"
                        "sys.argv = ['klc', 'verify', 'corollary-n']\n"
                        "cli.entry()\n")
    body = out.split("\n", 1)[1]
    assert hashlib.sha256(body.encode()).hexdigest() == CONTRACT_DIGESTS["verify corollary-n"]


def test_closed_pipe_exits_one_quietly():
    """A reader that stops early (`klc ... | head`) ends the command with
    exit 1 and nothing on stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "klc.cli", "group", "enumerate", "--group",
                             "o3", "--q-exponent", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_klc_env())
    assert json.loads(proc.stdout.readline())["command"] == "group enumerate"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_main_leaves_the_collector_as_it_found_it(runner):
    """CliRunner (like perfbench's tracer) runs main inside its own process,
    so main neither freezes the heap nor switches the collector."""
    was_enabled = gc.isenabled()
    try:
        for enable in (gc.enable, gc.disable):
            enable()
            enabled, frozen = gc.isenabled(), gc.get_freeze_count()
            for args in (["verify", "corollary-n"],
                         ["verify", "corollary-n", "--q-exponent", "9"],
                         ["group", "enumerate", "--group", "o3"]):
                runner.invoke(cli.main, args)
                assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), args
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("args,patch,code", [
    (["verify", "corollary-n"], "", 0),
    (["group", "enumerate", "--group", "sp2", "--oracle"],
     "cli.brute_force_group = lambda field, gid: []\n", 1),
    (["verify", "corollary-n", "--q-exponent", "9"], "", 2),
])
def test_entry_exits_with_the_command_status_and_freezes(args, patch, code):
    """The process entry keeps main's exit status and leaves the heap frozen."""
    out = _fresh_python("import gc, sys\n"
                        "import klc.cli as cli\n" + patch +
                        f"sys.argv = ['klc', *{args!r}]\n"
                        "before, code = gc.get_freeze_count(), 0\n"
                        "try:\n"
                        "    cli.entry()\n"
                        "except SystemExit as exc:\n"
                        "    code = exc.code\n"
                        "print(before, code, gc.get_freeze_count() > 0)\n")
    assert out.splitlines()[-1] == f"0 {code} True"


def test_entry_runs_the_command_with_the_collector_off():
    """The process entry turns the collector off before the command runs,
    leaves it off, and freezes the heap after it."""
    out = _fresh_python("import gc, sys\n"
                        "import klc.cli as cli\n"
                        "seen = []\n"
                        "def recording(field):\n"
                        "    seen.append(gc.isenabled())\n"
                        "    return []\n"
                        "cli.corollary_n = recording\n"
                        "sys.argv = ['klc', 'verify', 'corollary-n']\n"
                        "try:\n"
                        "    cli.entry()\n"
                        "except SystemExit as exc:\n"
                        "    code = exc.code\n"
                        "print(seen, code, gc.isenabled(), gc.get_freeze_count() > 0)\n")
    assert out.splitlines()[-1] == "[False] 0 False True"


def test_interrupt_prints_aborted_and_exits_130():
    """Ctrl-C during a command prints one line on stderr, no traceback, and
    exits 130, apart from the 1 and 2 of failures and usage errors."""
    proc = subprocess.run([sys.executable, "-c",
                           "import sys\n"
                           "import klc.cli as cli\n"
                           "def interrupted(field):\n"
                           "    raise KeyboardInterrupt\n"
                           "cli.corollary_n = interrupted\n"
                           "sys.argv = ['klc', 'verify', 'corollary-n']\n"
                           "cli.entry()\n"],
                          capture_output=True, text=True, timeout=60, env=_klc_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "Aborted!\n")


# Runs main on each argument list from stdin in an interpreter with the
# collector off; prints [exit code, objects gc.collect() found] per call.
# A call's patch [module, name] makes that function raise VerificationError
# for this call and every later one.  CliRunner is not used: its Result
# keeps the SystemExit, whose traceback holds the runner's frame, which
# holds the Result, a cycle of its own.
_PREMISE_SCRIPT = """
import gc, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import klc.cli as cli
from klc.errors import VerificationError

def broken(*args, **kwargs):
    raise VerificationError("broken")

gc.disable()
gc.collect()
out = []
for args, patch in json.load(sys.stdin):
    if patch:
        setattr(sys.modules[patch[0]], patch[1], broken)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="klc")
        except SystemExit as exc:
            code = exc.code
    out.append([code, gc.collect()])
json.dump(out, sys.stdout)
"""


def test_a_command_leaves_no_cycles():
    """The collector frees only cycles, so turning it off for the process
    loses nothing when a command leaves none: after each call of the leaf
    table, good and bad, after `verify all` at r = 1..3, after a check
    that raises and after a verification failure, gc.collect() finds 0."""
    calls = [(args, None, code) for args, code in _table_calls()]
    calls += [(["verify", "all", "--q-exponent", str(r)], None, 0) for r in (1, 2, 3)]
    calls += [(["verify", "all"], ["klc.battery", "theorem_a1"], 1),  # patched calls last
              (["verify", "corollary-n"], ["klc.cli", "corollary_n"], 1)]
    proc = subprocess.run([sys.executable, "-c", _PREMISE_SCRIPT],
                          input=json.dumps([[args, patch] for args, patch, _ in calls]),
                          capture_output=True, text=True, timeout=120, env=_klc_env())
    assert proc.returncode == 0, proc.stderr
    outcomes = json.loads(proc.stdout)
    assert [[args, *outcome] for (args, _, _), outcome in zip(calls, outcomes, strict=True)] \
        == [[args, code, 0] for args, _, code in calls]


def test_klc_script_is_the_module_entry():
    """pyproject's `klc` script runs what `python -m klc.cli` runs."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10
        script = re.search(r'^klc\s*=\s*"([^"]+)"', text, re.M).group(1)
    else:
        script = tomllib.loads(text)["project"]["scripts"]["klc"]
    tree = ast.parse(Path(cli.__file__).read_text())
    called = [node.body[0].value.func.id for node in tree.body
              if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [f"klc.cli:{name}" for name in called] == [script] == ["klc.cli:entry"]


def test_package_has_no_assert_statements():
    """Invariants raise VerificationError, which python -O cannot strip."""
    for path in sorted(Path(klc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


# The integer functions of math that klc uses, and the one true division in
# klc, pless_sum(...) / 2**h, a Fraction over an int: (file, function).
_MATH_INTEGER_NAMES = {"comb", "factorial"}
_TRUE_DIVISION_SITES = {("moments.py", "_a2_rhs")}


def _float_sources(tree, filename):
    """(line, construct) for each construct in one module that can form a
    float: a float or complex literal, a call of float, complex or round,
    `import math` or a name from math outside _MATH_INTEGER_NAMES, ** with a
    negative literal exponent, and / outside _TRUE_DIVISION_SITES."""
    found = []

    def negative(node):
        return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant))

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        line = getattr(node, "lineno", None)
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((line, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex", "round")):
            found.append((line, f"call of {node.func.id}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((line, f"math.{alias.name}") for alias in node.names
                         if alias.name not in _MATH_INTEGER_NAMES)
        elif isinstance(node, ast.Import):
            found.extend((line, "import math") for alias in node.names if alias.name == "math")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and negative(node.right):
            found.append((line, "** with a negative exponent"))
        elif (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
              and (filename, func) not in _TRUE_DIVISION_SITES):
            found.append((line, f"/ in {func}"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_package_forms_no_float():
    """No float is ever formed: no construct in src/klc that can make one,
    checked on the source, and a mutant that divides inside a Fraction is
    caught.  The rows of a few commands parse with no float in them."""
    for path in sorted(Path(klc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert _float_sources(tree, path.name) == [], path.name
    moments = Path(klc.__file__).parent / "moments.py"
    mutant = moments.read_text().replace("Fraction(1, 2**h)", "Fraction(1 / 2**h)")
    assert [what for _, what in _float_sources(ast.parse(mutant), "moments.py")] == \
        ["/ in _lhs_coeff"]

    def no_float(text):
        raise AssertionError(f"float in a row: {text}")

    runner = CliRunner()
    for good, _ in LEAF_TABLE:
        if good[0] in ("verify", "code"):
            result = runner.invoke(cli.main, good)
            for line in _lines(result):
                json.loads(line, parse_float=no_float, parse_constant=no_float)


def test_only_the_cli_imports_gc():
    """The collector is process state, which only the process entry sets:
    no library module imports gc."""
    importers = []
    for path in sorted(Path(klc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(node, ast.Import) and "gc" in (alias.name for alias in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "gc"
               for node in ast.walk(tree)):
            importers.append(path.name)
    assert importers == ["cli.py"]


def test_public_names_resolve():
    """klc.__all__ lists each public name once, and each one exists."""
    assert len(klc.__all__) == len(set(klc.__all__))
    for name in klc.__all__:
        assert getattr(klc, name) is not None, name
    namespace = {}
    exec("from klc import *", namespace)
    assert set(klc.__all__) <= set(namespace)


@pytest.mark.parametrize("module,name", [
    ("klc.moments", "predict_t12sk"), ("klc.moments", "solve_sk"),
    ("klc.groups", "q_binomial"), ("klc.groups", "coset_count"),
    ("klc.charsums", "a_r_closed_form"), ("klc.charsums", "a_r_sum"),
    ("klc.eisenstein.CycInt", "to_json"), ("klc.eisenstein.CycInt", "from_json"),
    ("klc.charsums", "delta"), ("klc.charsums", "kloosterman"),
    ("klc.charsums", "_DELTA_BLOCK"), ("klc.codes", "code_dimension"),
    ("klc.eisenstein", "zeta_pow"), ("klc.field.Field", "coeffs"),
    ("klc.field.Field", "from_coeffs"), ("klc.groups", "check_trace_spectrum"),
    ("klc.groups", "check_gauss_sum"), ("klc.groups", "SpectrumReport"),
    ("klc.groups", "GaussReport"), ("klc.codes", "_check_tag"),
    ("klc.charsums", "_SALIE_MAX_TUPLES"), ("klc.groups", "closure_spot_check"),
    ("klc.codes.WeightDistribution", "truncated_at"),
])
def test_unreached_functions_are_gone(module, name):
    """Functions that no command, battery row or other library function
    calls are not part of the package."""
    owner = klc
    for part in module.split(".")[1:]:
        owner = getattr(owner, part)
    assert not hasattr(owner, name)
    assert name not in klc.__all__


def test_math_failure_exits_one(runner, monkeypatch):
    """Broken invariants are verification failures, not usage errors."""
    monkeypatch.setattr(cli, "corollary_n", lambda field: [ZETA.to_int()])
    result = runner.invoke(cli.main, ["verify", "corollary-n"])
    assert result.exit_code == 1
    assert "not a rational integer" in result.output
    # with every Frobenius image equal to t, the trace sum leaves GF(3)
    monkeypatch.setattr(Field, "pow", lambda self, x, e: 3)
    result = runner.invoke(cli.main, ["verify", "corollary-n", "--q-exponent", "2"])
    assert result.exit_code == 1
    assert "outside the prime field" in result.output


def test_failing_row_exits_one(runner, monkeypatch):
    bad = RecursionReport("corollary-n", 3, 1, Fraction(0), Fraction(1),
                          False, ([0],), family="SK")

    monkeypatch.setattr(cli, "corollary_n", lambda field: [bad])
    result = runner.invoke(cli.main, ["verify", "corollary-n"])
    assert result.exit_code == 1
    assert json.loads(_lines(result)[-1])["equal"] is False


# ---------------------------------------------------------------------------
# configuration plumbing


def test_explicit_modulus_flag(runner):
    result = runner.invoke(cli.main, ["verify", "corollary-n",
                                      "--q-exponent", "2", "--modulus", "2,1,1"])
    assert result.exit_code == 0
    assert _rows(result)[0]["modulus"] == [2, 1, 1]


def test_bad_modulus_flags(runner):
    for flags in (["--q-exponent", "2", "--modulus", "1,1,1"],   # reducible
                  ["--q-exponent", "2", "--modulus", "1,1"],     # wrong degree
                  ["--q-exponent", "2", "--modulus", "a,b,c"]):  # not integers
        result = runner.invoke(cli.main, ["verify", "corollary-n"] + flags)
        assert result.exit_code == 2, flags


def test_empty_modulus_is_a_usage_error(runner):
    """An empty --modulus is refused, not read as the default modulus."""
    result = runner.invoke(cli.main, ["verify", "corollary-n", "--modulus", ""])
    assert result.exit_code == 2
    assert "--modulus expects comma-separated integers" in result.output


# ---------------------------------------------------------------------------
# exit codes of every leaf command

# A small valid call per leaf command, and flags that make it a usage error
# (a repeated option overrides the earlier value).
LEAF_TABLE = [
    (["charsums", "moments", "--hmax", "1"], ["--modulus", "1,2,3"]),
    (["charsums", "salie", "--hmax", "1"], ["--hmax", "5"]),
    (["charsums", "prop-e", "--mmax", "1"], ["--q-exponent", "2", "--modulus", "1,1,1"]),
    (["group", "enumerate", "--group", "sp2"], ["--modulus", "1,2,3"]),
    (["group", "spectrum", "--group", "so3"], ["--modulus", "a,b"]),
    (["group", "gauss", "--group", "so3", "--a", "1"], ["--a", "0"]),
    (["code", "dual-spectrum", "--code", "so3"], ["--modulus", "a,b"]),
    (["code", "spectrum", "--code", "sp2"], ["--truncate", "-1"]),
    (["code", "pless", "--code", "sp2", "--h", "2"], ["--h", "9"]),
    (["verify", "theorem-a1", "--hmax", "2"], ["--hmax", "0"]),
    (["verify", "theorem-a2", "--hmax", "2"], ["--modulus", "1,2,3"]),
    (["verify", "theorem-l", "--hmax", "2"], ["--q-exponent", "9"]),
    (["verify", "corollary-n"], ["--q-exponent", "2", "--modulus", "1,1,1"]),
    (["verify", "all"], ["--q-exponent", "9"]),
]

# Runs each argument list from stdin through conftest's CliRunner; prints
# [exit code, output, raised a non-SystemExit exception] per call.
_TABLE_SCRIPT = """
import json, sys
from conftest import CliRunner
import klc.cli as cli
runner = CliRunner()
out = []
for args in json.load(sys.stdin):
    res = runner.invoke(cli.main, args)
    out.append([res.exit_code, res.output,
                res.exception is not None and not isinstance(res.exception, SystemExit)])
json.dump(out, sys.stdout)
"""


def _leaf_commands(group, prefix=()):
    for name, cmd in group.commands.items():
        if isinstance(cmd, cli.Group):
            yield from _leaf_commands(cmd, prefix + (name,))
        else:
            yield prefix + (name,)


def _table_calls():
    """(arguments, expected exit code) for every call the table makes."""
    return [(args, code) for good, bad in LEAF_TABLE
            for args, code in ((good, 0), (good + bad, 2))]


def _check_table(outcomes):
    for (args, expected), (code, output, crashed) in zip(_table_calls(), outcomes,
                                                         strict=True):
        assert (code, crashed) == (expected, False), (args, output)
        assert "Traceback" not in output, args
        if expected == 0:
            rows = [json.loads(ln) for ln in output.splitlines() if ln]
            assert rows[0]["command"] == " ".join(args[:2]), args
            assert len(rows) > 1, args
        else:
            assert "Error:" in output, args


def test_leaf_table_covers_every_command():
    assert sorted(tuple(good[:2]) for good, _ in LEAF_TABLE) == sorted(_leaf_commands(cli.main))


def test_hidden_seed_flag_changes_nothing(runner):
    """perfbench/run.py passes --seed N to every command: each accepts it,
    prints the body it prints without it, and does not list it in --help."""
    for good, _ in LEAF_TABLE:
        plain = runner.invoke(cli.main, good)
        seeded = runner.invoke(cli.main, good + ["--seed", "7"])
        assert plain.exit_code == seeded.exit_code == 0, good
        assert seeded.output.split("\n", 1)[1] == plain.output.split("\n", 1)[1], good
        assert "seed" not in json.loads(seeded.output.split("\n", 1)[0]), good
        help_text = runner.invoke(cli.main, [*good[:2], "--help"]).output
        assert "--q-exponent" in help_text and "--seed" not in help_text, good


def test_leaf_commands_exit_codes(runner):
    outcomes = []
    for args, _ in _table_calls():
        res = runner.invoke(cli.main, args)
        outcomes.append((res.exit_code, res.output,
                         res.exception is not None and not isinstance(res.exception, SystemExit)))
    _check_table(outcomes)


def _outcomes_optimized(calls):
    """_TABLE_SCRIPT's outcomes for the argument lists, under python -O."""
    env = _klc_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).parent)  # conftest
    proc = subprocess.run([sys.executable, "-O", "-c", _TABLE_SCRIPT], input=json.dumps(calls),
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_leaf_commands_exit_codes_optimized():
    """The same table under python -O, where an assert would be stripped."""
    _check_table(_outcomes_optimized([args for args, _ in _table_calls()]))


# Malformed argument lists and two well-formed spellings, with the exit
# code and the number of Error: lines each gives.  A bare group prints its
# help and exits 2; every other malformed call prints one Error: line.
# `--hmax=3` and `--hmax 9 --hmax 3` (the last value wins) print the body
# of `--hmax 3`.
ARGV_TABLE = [
    ([], 2, 0),
    (["verify"], 2, 0),
    (["nope"], 2, 1),
    (["verify", "nope"], 2, 1),
    (["verify", "corollary-n", "--nope"], 2, 1),
    (["verify", "theorem-a1", "--hmax"], 2, 1),
    (["verify", "theorem-a1", "--hmax", "x"], 2, 1),
    (["verify", "theorem-a1", "--hmax", "17"], 2, 1),
    (["code", "pless", "--code", "xx", "--h", "1"], 2, 1),
    (["code", "pless", "--h", "1"], 2, 1),
    (["verify", "corollary-n", "extra"], 2, 1),
    (["verify", "theorem-a1", "--hmax=3"], 0, 0),
    (["verify", "theorem-a1", "--hmax", "9", "--hmax", "3"], 0, 0),
]


def _check_argv_table(outcomes, runner):
    body = runner.invoke(cli.main, ["verify", "theorem-a1", "--hmax", "3"]).output
    for (args, code, errors), (got, output, crashed) in zip(ARGV_TABLE, outcomes, strict=True):
        assert (got, crashed) == (code, False), (args, output)
        assert "Traceback" not in output, args
        assert sum(ln.startswith("Error:") for ln in output.splitlines()) == errors, args
        if code == 0:
            assert output.split("\n", 1)[1] == body.split("\n", 1)[1], args
        elif not errors:
            assert "Usage:" in output and "Commands:" in output, args


def test_malformed_argv_table(runner):
    outcomes = []
    for args, _, _ in ARGV_TABLE:
        res = runner.invoke(cli.main, args)
        outcomes.append((res.exit_code, res.output,
                         res.exception is not None and not isinstance(res.exception, SystemExit)))
    _check_argv_table(outcomes, runner)


def test_malformed_argv_table_optimized(runner):
    _check_argv_table(_outcomes_optimized([args for args, _, _ in ARGV_TABLE]), runner)


# ---------------------------------------------------------------------------
# output contract

# SHA-256 of each call's stdout, JSON header line dropped (CSV is hashed
# whole): every leaf command at r = 1, one CSV call and one non-default
# modulus.  Recorded by running these calls through CliRunner at commit
# eb55144, before the commands shared one leaf runner; the group spectrum
# and gauss calls at r = 2 were recorded the same way at commit 018dffa,
# before those commands called both routes directly.  The group enumerate
# call was pinned again when its count row, which could not be false, was
# deleted.  A digest moves only when an emitted row does.
CONTRACT_DIGESTS = {
    "charsums moments --hmax 1":
        "7b5cf93ce9c4ac5bb7b4e251a0d2cd021c5e2d56e1dcb52add01372e8b9f119b",
    "charsums salie --hmax 1":
        "52160355f63521ec3f34f46875b8bf8c366b45453444a54b2aa1d55dd37e51f8",
    "charsums prop-e --mmax 1":
        "ca270fa1c0817625549f6d7707ba7d116e6a19c9ac26e1aec5b24f2dc052fc7f",
    "group enumerate --group sp2":
        "be642b492eb91b1e349c722abbcd5e63909c699c34581730656ea846199f394e",
    "group spectrum --group so3":
        "4dea59980b758716d21bb5e42d5ff5d4b27adc823ecc51be9ab4c1baece17956",
    "group gauss --group so3 --a 1":
        "67d1a9235650f2d5d9832d70036ca8ef142f76efc45f349fbe631d2dc682c868",
    "code dual-spectrum --code so3":
        "fca75c1b1acc849186d39b7bf911bc38992ad6b7c9709b4bba0f83b2e45e06c6",
    "code spectrum --code sp2":
        "afbdff59ab23ab77bf28d2cb7e0a9caa67ccc5669c18655f9ed5f59744ea3dd6",
    "code pless --code sp2 --h 2":
        "a339215f3ad539345d899fd3e31a63908990aced0263a8bd6875fddcf1e9a410",
    "verify theorem-a1 --hmax 2":
        "d73936f0c17594c03206f9e5a7a98275cfdebb5eca6d36bae0b60bcddd89425e",
    "verify theorem-a2 --hmax 2":
        "fddafbf4f8dd1b49975fa179e37181b2b0471446ae6d21bb54f974369dbd351c",
    "verify theorem-l --hmax 2":
        "091aa821b9ccfd871d30aa8d451555ee30aaddca564934a681c6d297093b6a8f",
    "verify corollary-n":
        "22ba5ee3d67c19173c08eeb4b53aec802aabbb34de10b811b43bc9763da4b5e3",
    "verify all":
        "dd8e7c12bb68ba1d6f0bd163415a1dac2bd5eae92e942281a7f3ba6c3b33ccd5",
    "verify all --output csv":
        "ad26663557b13fdb9b18ff2e8024bbf9a756d36277037e0dfbcef52798cb2874",
    "verify theorem-a2 --hmax 4 --q-exponent 2 --modulus 2,1,1":
        "35ddb8702952b5995796aaf2f59925af7406b1dcb2b6f3787c5e8c73b190b3e7",
    "group spectrum --group o3 --q-exponent 2":
        "35681e2bf6eb5489c8a9eeef190767184ba0806136e3e6efd3fa3c228132c434",
    "group spectrum --group sp2 --q-exponent 2":
        "63e7a17b2fa701173e61be59e6da5798158a6890a40fc22f7e9bd2330b78a232",
    "group gauss --group o3 --a 5 --q-exponent 2":
        "c749506a036c73e940ff010fa327dec83e0e4a93b1b56749fd20e635fb81c9bb",
    "group gauss --group sp2 --a 5 --q-exponent 2":
        "b948e94926419ac2158eff9341d52dac27c83f2cd059d8ff8af67ad926c4d374",
    "group spectrum --group o3 --q-exponent 2 --modulus 2,1,1":
        "81231e2ce954fcbfa9b0eb2a519c0bc048e407738401cb9e6fdb7f0a3ce57a13",
}

# The Error: line of each usage-error call in LEAF_TABLE, in table order,
# recorded the same way.
CONTRACT_ERRORS = [
    "Error: modulus [1, 2, 3] has degree 2, expected 1",
    "Error: Invalid value for '--hmax': 5 is not in the range 1<=x<=4.",
    "Error: modulus [1, 1, 1] is reducible over GF(3)",
    "Error: modulus [1, 2, 3] has degree 2, expected 1",
    "Error: --modulus expects comma-separated integers, got 'a,b'",
    "Error: a must be a unit of GF(3), got 0",
    "Error: --modulus expects comma-separated integers, got 'a,b'",
    "Error: truncate_at must be nonnegative, got -1",
    "Error: Invalid value for '--h': 9 is not in the range 0<=x<=8.",
    "Error: Invalid value for '--hmax': 0 is not in the range 1<=x<=16.",
    "Error: modulus [1, 2, 3] has degree 2, expected 1",
    "Error: Invalid value for '--q-exponent': 9 is not in the range 1<=x<=8.",
    "Error: modulus [1, 1, 1] is reducible over GF(3)",
    "Error: Invalid value for '--q-exponent': 9 is not in the range 1<=x<=8.",
]


def test_output_contract_digests(runner):
    assert {" ".join(good) for good, _ in LEAF_TABLE} <= set(CONTRACT_DIGESTS)
    for call, digest in CONTRACT_DIGESTS.items():
        args = call.split()
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0, call
        body = result.output if "csv" in args else result.output.split("\n", 1)[1]
        assert hashlib.sha256(body.encode()).hexdigest() == digest, call


def test_output_contract_usage_errors(runner):
    for (good, bad), error in zip(LEAF_TABLE, CONTRACT_ERRORS, strict=True):
        result = runner.invoke(cli.main, good + bad)
        assert result.exit_code == 2, good + bad
        assert [ln for ln in result.output.splitlines() if ln.startswith("Error:")] == [error]
