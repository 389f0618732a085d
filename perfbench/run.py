"""The klc benchmark: real CLI commands, each in a fresh interpreter, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load model is a closed loop with one
client: the benchmark process starts one `klc` command, waits for it and
only then starts the next, so at most two processes are alive at once.
Every package cache is per process, so every timed command starts cold.

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
The host's speed drifts by up to 2x within seconds, so these times are
scaled to a reference speed: each timed child runs in short slices, and
between slices, while the child is stopped, this process times a fixed
calibration loop (see SpeedClock).
--trace 1 alternates an untraced and a traced pass of the workload
(perfbench/tracer.py) and prints the per-layer metrics.  Either way every
command's output goes through the correctness gate, the last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}, and the
error rate is failed / attempted.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"

SETUP_RUNS = 9
# A timed child runs in slices of SLICE_S; between slices the calibration
# unit repeats for CAL_S.  CAL_REF_S is the unit's nominal time.
SLICE_S = 0.5
CAL_S = 0.05
CAL_REF_S = 0.01
FLAG_KEYS = ("equal", "pass")


@dataclass(frozen=True)
class Workload:
    r: int
    commands: tuple[tuple[str, ...], ...]


WORKLOADS = {
    # Full weight spectra at q = 9: full DP, MacWilliams at N = 1440, Pless moments.
    "codes_q9": Workload(2, (("code", "spectrum", "--code", "so3", "--method", "dp"),
                             ("code", "spectrum", "--code", "sp2", "--method", "dp"),
                             ("code", "spectrum", "--code", "o3", "--method", "macwilliams"),
                             ("code", "pless", "--code", "so3", "--h", "4"))),
    # Group enumeration, trace spectra, materialised dual codewords, delta(4, .).
    "battery_q27": Workload(3, (("verify", "all"),)),
    # Truncated (cap 6) DP over 243 trace classes; no group enumeration.
    "recursions_q243": Workload(5, (("verify", "theorem-a1", "--hmax", "6"),
                                    ("verify", "theorem-a2", "--hmax", "6"),
                                    ("verify", "theorem-l", "--hmax", "6"))),
    # K(a) over (q-1)^2 terms on the table-free field.add path; no groups or codes.
    "moments_q2187": Workload(7, (("charsums", "moments", "--hmax", "16"),)),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

TIME_METRICS = ("field.build_s", "charsums.kloosterman_s", "charsums.moment_table_s",
                "charsums.delta_s", "charsums.prop_e_s", "groups.enumerate_s",
                "groups.spectrum_s", "codes.dp_s", "codes.macwilliams_s",
                "codes.dual_weights_s", "codes.pless_s", "moments.recursion_s")
COUNT_METRICS = {"eisenstein.char_evals": "count", "charsums.kloosterman_terms": "count",
                 "charsums.delta_tuples": "count", "groups.elements": "count",
                 "codes.dp_calls": "count", "codes.dp_cells": "count",
                 "codes.macwilliams_terms": "count", "codes.dual_coords": "count",
                 "codes.max_count_bits": "bits", "cli.rows": "count"}
PER_LAYER = {**{m: "s" for m in TIME_METRICS}, **COUNT_METRICS,
             "charsums.cache_hit_ratio": "ratio", "cli.self_s": "s",
             "cli.stdout_bytes": "bytes", "trace.overhead_s": "s", "trace.coverage": "ratio"}


class BenchError(Exception):
    """The checkout cannot be benchmarked at all."""


# ---------------------------------------------------------------------------
# inputs: the seed picks the field modulus


def _digits(x: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        x, d = divmod(x, 3)
        out.append(d)
    return out


def _divides(g: list[int], f: list[int]) -> bool:
    """Whether monic g divides f over GF(3); coefficient lists constant term first."""
    f = list(f)
    dg = len(g) - 1
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] % 3
        for k in range(dg + 1):
            f[i - dg + k] -= c * g[k]
    return not any(c % 3 for c in f[:dg])


def irreducibles(r: int) -> list[tuple[int, ...]]:
    """Monic irreducibles of degree r over GF(3), smallest encoding first."""
    out = []
    for m in range(3**r):
        f = _digits(m, r) + [1]
        if not any(_divides(_digits(k, d) + [1], f)
                   for d in range(1, r // 2 + 1) for k in range(3**d)):
            out.append(tuple(f))
    return out


def modulus_for(r: int, seed: int) -> tuple[int, ...]:
    """Seed 0 is the package default; seed s > 0 takes the other moduli in turn."""
    irr = irreducibles(r)
    return irr[0] if seed == 0 else irr[1 + (seed - 1) % (len(irr) - 1)]


def klc_args(workload: Workload, command: tuple[str, ...], seed: int) -> list[str]:
    args = [*command, "--q-exponent", str(workload.r), "--seed", str(seed)]
    if seed:
        args += ["--modulus", ",".join(map(str, modulus_for(workload.r, seed)))]
    return args


def reference_key(workload: Workload, command: tuple[str, ...]) -> str:
    return " ".join([*command, "--q-exponent", str(workload.r)])


# ---------------------------------------------------------------------------
# running one child process


@dataclass
class Child:
    wall_s: float
    scaled_s: float
    rss_kb: int
    exit_code: int
    stdout: str
    stderr: str
    trace: dict | None = None


def spawn(argv: list[str], clock: SpeedClock | None = None) -> Child:
    """Run argv to completion; time it and take its own peak RSS from wait4.

    With a clock the child runs in slices and its scaled time is kept too.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            if clock is None:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = scaled = time.perf_counter() - start
            else:
                wall, scaled, status, usage = clock.run(proc)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, scaled, usage.ru_maxrss, proc.returncode,
                     out.read().decode(), err.read().decode())


def run_klc(args: list[str], traced: bool, clock: SpeedClock | None = None) -> Child:
    if not traced:
        return spawn([sys.executable, "-m", "klc.cli", *args], clock)
    fd, path = tempfile.mkstemp(dir=WORK, suffix=".json")
    os.close(fd)
    try:
        child = spawn([sys.executable, str(BENCH / "tracer.py"), path, *args])
        with open(path) as fh:
            text = fh.read()
        child.trace = json.loads(text) if text else None
    finally:
        os.unlink(path)
    return child


def calibration_unit() -> int:
    """A fixed amount of interpreter work, independent of klc."""
    acc = 0
    for i in range(50_000):
        acc = (acc * 31 + i) % 1000003
    xs = list(range(64))
    for _ in range(1_000):
        xs = [(a + b) % 3 for a, b in zip(xs, xs[1:] + xs[:1])]
    return acc + sum(xs)


def calibrate() -> float:
    """Median wall time of one calibration unit, repeated for at least CAL_S."""
    times, start = [], time.perf_counter()
    while not times or time.perf_counter() - start < CAL_S:
        t = time.perf_counter()
        calibration_unit()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class SpeedClock:
    """Runs a child in slices and scales its time to the reference speed.

    The reference speed is the one at which a calibration unit takes
    CAL_REF_S.  Each slice of at most SLICE_S of the child's run is scaled
    by the mean unit time measured just before and just after it, while
    the child is stopped, so at most one of the two processes runs at a
    time.  The scale does not depend on klc, so a change to klc moves the
    scaled times as much as the raw ones.
    """

    def __init__(self):
        self.unit_s = calibrate()

    def run(self, proc: subprocess.Popen) -> tuple[float, float, int, os.struct_rusage]:
        """Wait for proc; returns its running time, that time scaled, its status and usage."""
        wall = scaled = 0.0
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            while True:
                start = time.perf_counter()
                if poller.poll(SLICE_S * 1000):
                    _, status, usage = os.wait4(proc.pid, 0)
                else:
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                slice_s = time.perf_counter() - start
                before, self.unit_s = self.unit_s, calibrate()
                wall += slice_s
                scaled += slice_s * CAL_REF_S * 2 / (before + self.unit_s)
                if not os.WIFSTOPPED(status):
                    return wall, scaled, status, usage
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(pidfd)


def setup_once(r: int, seed: int, clock: SpeedClock) -> float:
    """A fresh interpreter imports klc.cli and builds the workload's field; scaled time."""
    mod = "" if seed == 0 else f", {list(modulus_for(r, seed))}"
    child = spawn([sys.executable, "-c", f"import klc.cli, klc.field; klc.field.Field({r}{mod})"],
                  clock)
    if child.exit_code:
        raise BenchError(f"set-up failed with exit {child.exit_code}: {child.stderr.strip()}")
    return child.scaled_s


# ---------------------------------------------------------------------------
# correctness gate


def parse_rows(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def facts(rows: list[dict]) -> dict:
    """The mathematical content of verdict rows, free of layout and timestamps.

    A weight spectrum has thousands of rows, so it is kept as its total and
    a SHA-256 of its "j:count" lines.
    """
    out, spectra = {}, {}
    for row in rows:
        if "check" in row:
            out[f"check {row['check']}"] = "present"
        elif "theorem" in row:
            key = " ".join([row["theorem"], f"h={row['h']}", row.get("family", "")]).strip()
            out[key] = [row["lhs"], row["rhs"]]
        elif "family" in row and "value" in row:
            out[f"{row['family']} h={row['h']}"] = row["value"]
        elif "code" in row and "lhs" in row:
            out[f"pless {row['code']} h={row['h']}"] = [row["lhs"], row["rhs"]]
        elif "code" in row and "j" in row:
            spectra.setdefault(row["code"], []).append((row["j"], int(row["count"])))
    for code, counts in spectra.items():
        lines = "\n".join(f"{j}:{c}" for j, c in sorted(counts))
        out[f"spectrum {code} words"] = str(sum(c for _, c in counts))
        out[f"spectrum {code} sha256"] = hashlib.sha256(lines.encode()).hexdigest()
    return out


def gate(child: Child, r: int, modulus: tuple[int, ...], expected: dict) -> list[str]:
    """Problems with one command's result; an empty list means it passed."""
    if child.exit_code != 0:
        return [f"exit code {child.exit_code}: {child.stderr.strip()[-300:]}"]
    try:
        header, *rows = parse_rows(child.stdout)
    except ValueError as exc:
        return [f"output is not JSON rows: {exc}"]
    problems = []
    if header.get("q") != 3**r or tuple(header.get("modulus", ())) != modulus:
        problems.append(f"header names the wrong field: {header}")
    for row in rows:
        for key in FLAG_KEYS:
            if row.get(key) is False:
                problems.append(f"{key} is false in {row}")
    got = facts(rows)
    for key, value in expected.items():
        if got.get(key) != value:
            problems.append(f"{key}: expected {value}, got {got.get(key)}")
    return problems


# ---------------------------------------------------------------------------
# metrics


def trace_metrics(children: list[Child]) -> dict:
    """Per-layer metrics of one traced pass (all of the workload's commands)."""
    out = {m: 0.0 for m in TIME_METRICS}
    out.update({m: 0 for m in COUNT_METRICS})
    lib_s = main_s = stdout_bytes = hits = calls = 0
    for child in children:
        spans = child.trace["spans"]
        self_s = [end - start for _, _, start, end in spans]
        for _, parent, start, end in spans:
            if parent >= 0:
                self_s[parent] -= end - start
            else:
                lib_s += end - start
        for (bucket, *_), s in zip(spans, self_s):
            out[bucket] += s
        counts = child.trace["counts"]
        for m in COUNT_METRICS:
            out[m] += counts.get(m, 0)
        hits += counts["charsums.cache_hits"]
        calls += counts["charsums.cache_calls"]
        main_s += child.trace["main_s"]
        stdout_bytes += len(child.stdout.encode())
        out["cli.rows"] += len(child.stdout.splitlines()) - 1
    out["charsums.cache_hit_ratio"] = hits / calls if calls else 0.0
    out["cli.self_s"] = main_s - lib_s
    out["cli.stdout_bytes"] = stdout_bytes
    out["trace.coverage"] = lib_s / sum(c.wall_s for c in children)
    return out


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def run_pass(workload: Workload, seed: int, reference: dict, traced: bool,
             tally: Tally, clock: SpeedClock | None = None) -> tuple[list[Child], bool]:
    """All of the workload's commands once; returns the children and whether all passed."""
    modulus = modulus_for(workload.r, seed)
    children, ok = [], True
    for command in workload.commands:
        child = run_klc(klc_args(workload, command, seed), traced, clock)
        expected = reference.get(reference_key(workload, command))
        problems = ["no reference recorded"] if expected is None else gate(
            child, workload.r, modulus, expected)
        if traced and child.trace is None:
            problems.append("tracer wrote no spans")
        tally.attempted += 1
        if problems:
            tally.failed += 1
            ok = False
            print(f"FAILED {' '.join(command)}: " + "; ".join(problems), file=sys.stderr)
        children.append(child)
    return children, ok


def _keep_going(started: float, seconds: float, passes: list[float]) -> bool:
    """Start another pass only if a typical one still fits in the window."""
    return time.perf_counter() - started + statistics.median(passes) <= seconds


def measure(workload: Workload, seed: int, seconds: float, reference: dict) -> tuple[dict, Tally, bool]:
    """End-to-end metrics: timed untraced passes, plus set-up in fresh interpreters.

    Times are scaled to the reference speed by a SpeedClock; the raw wall
    time quartiles are printed too.
    """
    clock = SpeedClock()
    setup = statistics.median(setup_once(workload.r, seed, clock) for _ in range(SETUP_RUNS))
    tally, scaled, raw, rss, durations = Tally(), [], [], [], []
    started = time.perf_counter()
    while not durations or _keep_going(started, seconds, durations):
        pass_start = time.perf_counter()
        children, ok = run_pass(workload, seed, reference, False, tally, clock)
        durations.append(time.perf_counter() - pass_start)
        rss += [c.rss_kb for c in children]
        if ok:
            scaled.append(sum(c.scaled_s for c in children))
            raw.append(sum(c.wall_s for c in children))
    for name, samples in (("scaled", scaled or durations), ("raw", raw or durations)):
        q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        print(f"wall_s {name} quartiles {q1:.4f} {q3:.4f} s over {len(samples)} passes")
    metrics = {"wall_s": statistics.median(scaled or durations), "setup_s": setup,
               "peak_rss_mb": max(rss) / 1024}
    return metrics, tally, bool(scaled)


def measure_traced(workload: Workload, seed: int, seconds: float,
                   reference: dict) -> tuple[dict, Tally, bool]:
    """Per-layer metrics: alternate untraced and traced passes of the workload."""
    tally, samples, durations, correct = Tally(), [], [], True
    started = time.perf_counter()
    while not durations or _keep_going(started, seconds, durations):
        plain, ok_plain = run_pass(workload, seed, reference, False, tally)
        traced, ok_traced = run_pass(workload, seed, reference, True, tally)
        durations.append(sum(c.wall_s for c in plain + traced))
        if not (ok_plain and ok_traced):
            correct = False
            continue
        if [parse_rows(c.stdout)[1:] for c in plain] != [parse_rows(c.stdout)[1:] for c in traced]:
            print("FAILED traced and untraced verdict rows differ", file=sys.stderr)
            correct = False
            continue
        m = trace_metrics(traced)
        m["trace.overhead_s"] = sum(c.wall_s for c in traced) - sum(c.wall_s for c in plain)
        samples.append(m)
    if not samples:
        return {m: 0 for m in PER_LAYER}, tally, False
    metrics = {}
    for name in PER_LAYER:
        values = [s[name] for s in samples]
        if name in COUNT_METRICS and len(set(values)) > 1:
            print(f"FAILED exact count {name} differs between passes: {values}", file=sys.stderr)
            correct = False
        metrics[name] = statistics.median(values)
    return metrics, tally, correct


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (SRC / "klc" / "cli.py").is_file():
        raise BenchError(f"no klc sources under {SRC}")
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[name]
    warm = spawn([sys.executable, "-c", "import klc.cli"])  # compile bytecode once, untimed
    if warm.exit_code:
        raise BenchError(f"cannot import klc.cli: {warm.stderr.strip()}")
    measure_fn = measure_traced if trace else measure
    metrics, tally, correct = measure_fn(workload, seed, seconds, reference)
    units = PER_LAYER if trace else END_TO_END
    return {"correct": correct and tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def record_reference() -> None:
    """Write reference.json from one seed-0 run of every command."""
    WORK.mkdir(exist_ok=True)
    out = {}
    for workload in WORKLOADS.values():
        for command in workload.commands:
            child = run_klc(klc_args(workload, command, 0), traced=False)
            problems = gate(child, workload.r, modulus_for(workload.r, 0), {})
            if problems:
                raise BenchError(f"{' '.join(command)}: {problems}")
            out[reference_key(workload, command)] = facts(parse_rows(child.stdout)[1:])
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this checkout and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        reference = json.loads(REFERENCE.read_text())
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    modulus = modulus_for(WORKLOADS[args.workload].r, args.seed)
    print(f"workload {args.workload} seed {args.seed} modulus {list(modulus)} "
          f"error_rate {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
