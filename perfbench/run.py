#!/usr/bin/env python3
"""The repository benchmark: closed-loop workloads of the `bec` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every workload is one single-process `bec` run with `--workers 2`, repeated
one after another (a closed loop with one client) until `--seconds` have
passed. The program is built from source first (`cargo build --release`,
into `$CARGO_TARGET_DIR`, default `.bench_build`).

`--trace 0` times the plain `bec` process and prints the end-to-end metrics.
`--trace 1` alternates a plain `bec` run with the traced pipeline of
`perfbench/harness`, which makes the same library calls and times each one,
and prints the per-layer metrics. Both modes check the outputs: byte
digests against `perfbench/reference.json` (recorded at the baseline with
`--record`), the same digests on every iteration, zero soundness violations
and equivalence failures, and, when tracing, that the traced pipeline wrote
the same bytes and counted the same work as the plain run.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. perfbench/README.md describes the
workloads, the metrics and what each layer should move.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKERS = "2"
# Per-process deadline: a hung `bec` must not keep the run past its limit.
PROCESS_TIMEOUT_S = 150
# Set-up-only invocations timed per run; setup_s is their median.
SETUP_SAMPLES = 15
# `bec`'s default sampling seed; the fuzz session is pinned to it so its
# baseline findings stay in view (see README.md).
DEFAULT_SEED = 3052
CRC32 = "examples/bench_crc32.s"
SHARDS = 64

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics and units, in the order they are printed.
PER_LAYER = {
    "suite.compile_s": "s",
    "rv32.parse_s": "s",
    "core.analyze_s": "s",
    "core.analyses": "count",
    "core.solver_visits": "count",
    "sched.schedule_s": "s",
    "sched.variants": "count",
    "sim.golden_s": "s",
    "sim.golden_cycles": "cycles",
    "sim.substrate_hits": "count",
    "sim.campaign_s": "s",
    "sim.runs": "count",
    "sim.runs_per_busy_s": "1/s",
    "sim.batches": "count",
    "sim.lane_occupancy": "lanes",
    "sim.fork_rate": "ratio",
    "sim.early_exit_rate": "ratio",
    "sim.simulated_cycles": "cycles",
    "sim.cycles_per_run": "cycles",
    "sim.shards_executed": "count",
    "sim.shards_resumed": "count",
    "report.read_s": "s",
    "report.read_bytes": "B",
    "report.read_mb_per_s": "MB/s",
    "report.validate_s": "s",
    "report.write_s": "s",
    "report.write_bytes": "B",
    "fuzzgen.generate_s": "s",
    "fuzzgen.programs": "count",
    "fuzz.probe_s": "s",
    "fuzz.findings": "count",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}

# Counters that must repeat exactly: across iterations, between the traced
# and the plain run, and (where the workload's inputs do not depend on the
# seed) against the reference.
DETERMINISTIC = ["sim.runs", "sim.batches", "sim.simulated_cycles", "core.solver_visits", "fuzz.findings"]
# The plain run's own telemetry names for the counters it exports.
CLI_COUNTERS = {
    "sim.runs": "campaign.runs",
    "sim.batches": "campaign.batches",
    "sim.simulated_cycles": "campaign.simulated_cycles",
}


class Failure(Exception):
    """The benchmark cannot run here (no checkout, build failed, …)."""


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Run:
    """One finished process: timings from wait4, output files, exit code."""

    def __init__(self, cmd, out, err):
        started = time.perf_counter()
        with open(out, "wb") as o, open(err, "wb") as e:
            proc = subprocess.Popen(cmd, stdout=o, stderr=e, stdin=subprocess.DEVNULL)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        self.wall = time.perf_counter() - started
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.out, self.err = out, err

    def stdout(self):
        with open(self.out, encoding="utf-8", errors="replace") as f:
            return f.read()

    def stderr(self):
        with open(self.err, encoding="utf-8", errors="replace") as f:
            return f.read()


class Workload:
    """A workload: the plain `bec` command, its set-up-only variant, its
    traced pipeline, and how to read and check their outputs."""

    # The reference entries that hold for every seed; None: all of them.
    seed_free = None

    def __init__(self, ctx, seed):
        self.ctx, self.seed = ctx, seed
        self.work = ctx.work

    def path(self, name):
        return os.path.join(self.work, name)

    def prepare(self):
        """Builds the workload's inputs (untimed)."""

    def setup_command(self):
        """The same command with its fault injection cut to one run per
        campaign: everything before the first fault-injection run. None
        when the plain run shows its own set-up time (`setup_seconds`)."""
        return None

    def faithful(self):
        """The traced pipeline wrote the plain run's report, byte for byte."""
        return sha256(self.path("traced.json")) == sha256(self.path("report.json"))

    def cli_counters(self):
        """The plain run's own counts, from its `--metrics-out` export."""
        with open(self.path("metrics.json")) as f:
            exported = json.load(f)["metrics"]
        return {k: exported.get(v, {}).get("value", 0) for k, v in CLI_COUNTERS.items()}


class ShaStudy(Workload):
    name = "study-exhaustive-sha"
    variants = 3

    def command(self, metrics=None):
        cmd = [self.ctx.bec, "study", "--bench", "sha", "--workers", WORKERS, "--json"]
        return cmd + ["--report", self.path("report.json")] + metrics_flag(metrics)

    def setup_command(self):
        return [self.ctx.bec, "study", "--bench", "sha", "--sample", "1", "--workers", WORKERS,
                "--report", self.path("setup.json")]

    def traced(self):
        return ["study", self.path("traced.json"), WORKERS, str(DEFAULT_SEED), "exhaustive", "sha"]

    def artifacts(self):
        return {"report": self.path("report.json"), "stdout": self.path("stdout")}

    def check(self, run):
        """Returns (attempted, failed, executed runs, problems)."""
        problems = []
        try:
            summary = json.loads(run.stdout())
            variants = [v for b in summary["benchmarks"] for v in b["variants"]]
        except (ValueError, KeyError):
            return self.variants, self.variants, 0, [f"exit {run.code}, unreadable summary"]
        failed = sum(1 for v in variants if v["violations"] > 0)
        if run.code != 0:
            problems.append(f"exit {run.code}")
            failed = self.variants
        if not summary.get("soundness_ok") or not summary.get("coverage_ok"):
            problems.append("soundness or coverage gate failed")
        if len(variants) != self.variants:
            problems.append(f"{len(variants)} variants, expected {self.variants}")
        return self.variants, failed, sum(v["runs"] for v in variants), problems


class SuiteStudy(ShaStudy):
    name = "study-sampled-suite"
    variants = 24
    seed_free = {"counters:sim.runs", "counters:core.solver_visits"}
    sample = "20000"

    def command(self, metrics=None):
        cmd = [self.ctx.bec, "study", "--sample", self.sample, "--seed", str(self.seed)]
        cmd += ["--workers", WORKERS, "--json", "--report", self.path("report.json")]
        return cmd + metrics_flag(metrics)

    def setup_command(self):
        return [self.ctx.bec, "study", "--sample", "1", "--seed", str(self.seed),
                "--workers", WORKERS, "--report", self.path("setup.json")]

    def traced(self):
        return ["study", self.path("traced.json"), WORKERS, str(self.seed), self.sample]


class ResumeCrc32(Workload):
    name = "resume-crc32"
    seed_free = {"digests:report", "counters:sim.runs", "counters:core.solver_visits"}

    def prepare(self):
        # The seed picks which 32 of the 64 shards the interrupted campaign
        # completed; the library writes that half report (and the
        # uninterrupted one) without going through the JSON reader.
        keep = sorted(random.Random(self.seed).sample(range(SHARDS), SHARDS // 2))
        cmd = [self.ctx.harness, "half", CRC32, ",".join(map(str, keep)),
               self.path("half.json"), self.path("full.json"), WORKERS]
        run = Run(cmd, self.path("half.out"), self.path("half.err"))
        if run.code != 0:
            raise Failure(f"building the half report failed: {run.stderr().strip()}")
        runs = json.loads(run.stdout())
        self.executed = runs["full_runs"] - runs["half_runs"]
        self.full_digest = sha256(self.path("full.json"))

    def command(self, metrics=None):
        cmd = [self.ctx.bec, "campaign", CRC32, "--workers", WORKERS,
               "--resume", self.path("half.json"), "--report", self.path("report.json")]
        return cmd + metrics_flag(metrics)

    def setup_seconds(self, run):
        # Everything but the pool: the CLI prints the pool's wall time.
        m = re.search(r"runs in ([0-9.]+) ms", run.stderr())
        if not m:
            raise Failure("`bec campaign` printed no pool time")
        return run.wall - float(m.group(1)) / 1e3

    def traced(self):
        return ["resume", CRC32, self.path("half.json"), self.path("traced.json"), WORKERS]

    def artifacts(self):
        return {"report": self.path("report.json")}

    def check(self, run):
        problems = []
        if run.code != 0:
            problems.append(f"exit {run.code}: {run.stderr().strip()[-200:]}")
        elif sha256(self.path("report.json")) != self.full_digest:
            problems.append("resumed report differs from the uninterrupted campaign's")
        failed = 1 if problems else 0
        return 1, failed, self.executed, problems


class Fuzz1k(Workload):
    name = "fuzz-1k"
    budget = "1024"

    def command(self, metrics=None):
        # `bec fuzz` takes no --metrics-out; its counters come from stdout.
        return [self.ctx.bec, "fuzz", "--budget", self.budget, "--workers", WORKERS, "--json"]

    def setup_command(self):
        return [self.ctx.bec, "fuzz", "--budget", "1", "--sample", "1", "--class-checks", "0",
                "--workers", WORKERS]

    def traced(self):
        return ["fuzz", self.path("traced.json"), WORKERS, str(DEFAULT_SEED), self.budget]

    def artifacts(self):
        return {"stdout": self.path("stdout")}

    def summary(self):
        with open(self.path("stdout")) as f:
            return json.load(f)

    def check(self, run):
        """A program with at least one finding is a failed operation; the
        session exits 1 exactly when there are findings."""
        problems = []
        try:
            log = self.summary()
        except ValueError:
            return int(self.budget), int(self.budget), 0, [f"exit {run.code}, no summary"]
        failed = len({f["label"] for f in log["findings"]})
        if run.code != (1 if log["findings"] else 0):
            problems.append(f"exit {run.code} with {len(log['findings'])} findings")
        if log["programs"] != int(self.budget):
            problems.append(f"{log['programs']} programs, expected {self.budget}")
        return log["programs"], failed, log["campaign_runs"], problems

    def faithful(self):
        """The CLI prints the session's findings log inside its summary."""
        with open(self.path("traced.json")) as f:
            traced = json.load(f)
        summary = self.summary()
        return all(summary.get(k) == v for k, v in traced.items())

    def cli_counters(self):
        log = self.summary()
        return {"sim.runs": log["campaign_runs"], "fuzz.findings": len(log["findings"])}


WORKLOADS = {w.name: w for w in (ShaStudy, SuiteStudy, ResumeCrc32, Fuzz1k)}


def metrics_flag(path):
    return ["--metrics-out", path] if path else []


class Context:
    """The checkout: where the binaries are and where scratch files go."""

    def __init__(self, workload):
        self.root = os.getcwd()
        for needed in ("Cargo.toml", "crates", CRC32):
            if not os.path.exists(os.path.join(self.root, needed)):
                raise Failure(f"not the root of a bec checkout: `{needed}` is missing")
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.join(self.root, target)
        self.bec = os.path.join(self.target, "release", "bec")
        self.harness = os.path.join(self.target, "release", "perfbench-harness")
        self.work = os.path.join(self.target, "perfbench-work", workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for cmd in (["cargo", "build", "--release", "--offline", "--bin", "bec"],
                    ["cargo", "build", "--release", "--offline", "--manifest-path",
                     os.path.join(HERE, "harness", "Cargo.toml")]):
            done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                                  stdin=subprocess.DEVNULL)
            if done.returncode != 0:
                raise Failure(f"`{' '.join(cmd)}` failed")


class Checks:
    """Collects problems; the run is correct when there are none."""

    def __init__(self, reference):
        self.reference = reference
        self.problems = []
        self.seen = {}

    def same(self, what, value):
        """`value` must repeat on every iteration and match the reference,
        which holds only what the seed does not change."""
        first = self.seen.setdefault(what, value)
        if first != value:
            self.problems.append(f"{what} changed between iterations: {first} then {value}")
        kind, _, key = what.partition(":")
        expected = self.reference.get(kind, {}).get(key)
        if expected is not None and expected != value:
            self.problems.append(f"{what} is {value}, the reference says {expected}")


def plain_run(workload, checks, metrics=None):
    """One plain `bec` run with every output check; returns the run and
    (attempted, failed, executed runs)."""
    run = Run(workload.command(metrics), workload.path("stdout"), workload.path("stderr"))
    attempted, failed, executed, problems = workload.check(run)
    checks.problems += problems
    if not problems:
        for kind, path in workload.artifacts().items():
            checks.same(f"digests:{kind}", sha256(path))
    return run, attempted, failed, executed


def keep_going(started, seconds, durations):
    """Starts another iteration while at least half of a typical one still
    fits before the deadline, so runs end close to `seconds` on average."""
    if not durations:
        return True
    return time.perf_counter() - started + statistics.median(durations) / 2 < seconds


def measure(workload, seconds, checks):
    setups = []
    if workload.setup_command():
        for _ in range(SETUP_SAMPLES):
            run = Run(workload.setup_command(), workload.path("setup.out"), workload.path("setup.err"))
            if run.code != 0:
                checks.problems.append(f"set-up run exited {run.code}")
            setups.append(run.wall)
    samples = {name: [] for name in END_TO_END}
    attempted = failed = 0
    started = time.perf_counter()
    while keep_going(started, seconds, samples["wall_s"]):
        run, a, f, executed = plain_run(workload, checks)
        attempted, failed = attempted + a, failed + f
        checks.same("counters:sim.runs", executed)
        print(f"{workload.name}: wall {run.wall:.3f} s, cpu {run.cpu:.3f} s", file=sys.stderr)
        # Delete the outputs before the kernel writes them back, so that
        # write-back does not land in the next iteration's time.
        for path in workload.artifacts().values():
            if os.path.exists(path):
                os.remove(path)
        samples["wall_s"].append(run.wall)
        samples["cpu_s"].append(run.cpu)
        samples["runs_per_s"].append(executed / run.wall)
        samples["peak_rss_mb"].append(run.rss_mb)
        if not workload.setup_command():
            setups.append(workload.setup_seconds(run))
    samples["setup_s"] = setups
    return samples, attempted, failed


def trace(workload, seconds, checks):
    samples = {name: [] for name in PER_LAYER}
    attempted = failed = 0
    pairs = []
    started = time.perf_counter()
    while keep_going(started, seconds, pairs):
        pair_started = time.perf_counter()
        run, a, f, _ = plain_run(workload, checks, workload.path("metrics.json"))
        attempted, failed = attempted + a, failed + f
        try:
            cli = workload.cli_counters()
        except (OSError, ValueError, KeyError):
            cli = {}
            checks.problems.append("the plain run reported no counters")
        traced = Run([workload.ctx.harness] + workload.traced(), workload.path("traced.out"),
                     workload.path("traced.err"))
        if traced.code != 0:
            raise Failure(f"traced pipeline exited {traced.code}: {traced.stderr().strip()}")
        result = json.loads(traced.stdout())
        layers = result["layers"]
        for gate in ("violations", "equivalence_failures", "coverage_regressions"):
            if result.get(gate):
                checks.problems.append(f"traced pipeline: {result[gate]} {gate}")
        # Faithfulness: the traced pipeline wrote the plain run's output and
        # counted the same work.
        if not workload.faithful():
            checks.problems.append("the traced pipeline's output differs from the plain run's")
        for name, value in cli.items():
            if int(layers.get(name, 0)) != value:
                checks.problems.append(f"{name}: traced {int(layers.get(name, 0))}, plain {value}")
        for name in DETERMINISTIC:
            checks.same(f"counters:{name}", int(layers.get(name, 0)))
        layers["trace.overhead"] = result["wall_s"] / run.wall
        for name in PER_LAYER:
            samples[name].append(layers.get(name, 0))
        pairs.append(time.perf_counter() - pair_started)
    return samples, attempted, failed


def record(workload, checks):
    """Writes this run's digests and counters into reference.json."""
    with open(REFERENCE) as f:
        reference = json.load(f)
    entry = reference.setdefault(workload.name, {})
    for what, value in sorted(checks.seen.items()):
        if workload.seed_free is None or what in workload.seed_free:
            kind, _, key = what.partition(":")
            entry.setdefault(kind, {})[key] = value
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests and counters as the reference")
    args = parser.parse_args()

    ctx = Context(args.workload)
    ctx.build()
    workload = WORKLOADS[args.workload](ctx, args.seed)
    with open(REFERENCE) as f:
        reference = json.load(f).get(args.workload, {})
    checks = Checks(reference)
    workload.prepare()
    measure_fn, units = (trace, PER_LAYER) if args.trace else (measure, END_TO_END)
    samples, attempted, failed = measure_fn(workload, args.seconds, checks)
    if args.record:
        record(workload, checks)
    shutil.rmtree(ctx.work, ignore_errors=True)

    metrics = {}
    print(f"{workload.name}: seed {args.seed}, {len(samples[next(iter(units))])} iteration(s)")
    for name, unit in units.items():
        value = statistics.median(samples[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<24} {value:>16.6f} {unit}")
    print(f"  {'failed_share':<24} {failed / max(attempted, 1):>16.6f} ratio ({failed}/{attempted})")
    for problem in dict.fromkeys(checks.problems):
        print(f"  CHECK FAILED: {problem}")
    result = {"correct": not checks.problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except Failure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
