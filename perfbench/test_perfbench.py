"""Self-test of the benchmark itself: python3 -m pytest perfbench -q  (about a minute)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))
from klc.field import default_modulus, is_irreducible  # noqa: E402

# Full MacWilliams and Pless at q = 9, truncated DP, group enumeration: a few seconds.
SMALL = bench.Workload(2, (("verify", "theorem-l", "--hmax", "4"),
                           ("code", "spectrum", "--code", "so3", "--method", "macwilliams"),
                           ("code", "pless", "--code", "sp2", "--h", "2")))
NO_FACTS = {bench.reference_key(SMALL, c): {} for c in SMALL.commands}


@pytest.fixture(autouse=True)
def work_dir():
    bench.WORK.mkdir(exist_ok=True)


def test_seed_rule_is_deterministic_and_seed_zero_is_the_default():
    for r in (1, 2, 3, 5, 7):
        assert bench.modulus_for(r, 0) == default_modulus(r)
        picked = [bench.modulus_for(r, s) for s in range(1, 8)]
        assert picked == [bench.modulus_for(r, s) for s in range(1, 8)]
        assert all(m != default_modulus(r) for m in picked)
    for r in (2, 3, 5):
        monic = [(*c, 1) for c in product(range(3), repeat=r)]
        expected = sorted((m for m in monic if is_irreducible(m)),
                          key=lambda m: [*reversed(m)])
        assert bench.irreducibles(r) == expected


def test_sliced_child_keeps_its_result_and_only_its_running_time_counts():
    # Busy for 1.2 s of its own CPU time, so it is stopped and continued twice.
    code = ("import sys, time\n"
            "while time.process_time() < 1.2: pass\n"
            "print('done'); sys.exit(3)")
    child = bench.spawn([sys.executable, "-c", code], bench.SpeedClock())
    assert (child.exit_code, child.stdout) == (3, "done\n")
    assert 1.2 <= child.wall_s < 2.4
    assert child.scaled_s > 0


def test_traced_command_starts_cold_and_gives_the_untraced_verdicts():
    for workload, seed in ((bench.WORKLOADS["battery_q27"], 3), (SMALL, 0)):
        for command in workload.commands:
            args = bench.klc_args(workload, command, seed)
            plain = bench.run_klc(args, traced=False)
            traced = bench.run_klc(args, traced=True)
            assert plain.exit_code == traced.exit_code == 0
            assert traced.trace["cold"] == {"kloosterman_all": 0, "delta_table": 0,
                                            "enumerate_group": 0, "dual_weights": 0,
                                            "_SPECTRA": 0}
            assert bench.parse_rows(plain.stdout)[1:] == bench.parse_rows(traced.stdout)[1:]


def test_exact_counts_repeat_across_runs_and_seeds():
    for workload, reference in ((bench.WORKLOADS["battery_q27"],
                                 json.loads(bench.REFERENCE.read_text())),
                                (SMALL, NO_FACTS)):
        runs = [bench.measure_traced(workload, seed, 0.1, reference) for seed in (1, 1, 2)]
        assert all(correct for _, _, correct in runs)
        counts = [{k: m[k] for k in bench.COUNT_METRICS} for m, _, _ in runs]
        assert counts[0] == counts[1] == counts[2]
        assert all(counts[0][k] > 0 for k in ("groups.elements", "codes.dp_cells", "cli.rows"))
    assert counts[0]["codes.macwilliams_terms"] > 0 and counts[0]["codes.max_count_bits"] > 0


def test_corrupted_reference_value_counts_as_failure():
    workload = bench.Workload(5, (("verify", "theorem-l", "--hmax", "6"),))
    key = bench.reference_key(workload, workload.commands[0])
    reference = {key: json.loads(bench.REFERENCE.read_text())[key]}
    _, tally, ok = bench.measure(workload, 1, 0.1, reference)
    assert (tally.attempted, tally.failed, ok) == (1, 0, True)
    lhs, rhs = reference[key]["theorem-l h=3"]
    reference[key]["theorem-l h=3"] = [lhs + "1", rhs]
    _, tally, ok = bench.measure(workload, 1, 0.1, reference)
    assert (tally.attempted, tally.failed, ok) == (1, 1, False)


def test_checkout_without_sources_exits_nonzero_without_a_result():
    bare = bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "battery_q27",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
