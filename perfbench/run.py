#!/usr/bin/env python3
"""End-to-end benchmark of the release `tcpanaly` binary.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run builds `tcpanaly` and the benchmark's own `perfbench` tool from
source (into `$CARGO_TARGET_DIR`, default `.bench_build`), has `perfbench
gen` write the workload's seeded pcap corpus under `.bench_work/` (not
timed), and then:

* `--trace 0`: runs the workload's exact `tcpanaly` command line in fresh
  processes, pass after pass, for `--seconds`, and reports the end-to-end
  metrics `packets_per_cpu_s`, `peak_rss_mb` and `setup_s` (medians of
  the processes' CPU time and peak RSS; the set-up runs are interleaved
  with the passes), plus the unbounded wall-clock `packets_per_s` on a
  plain line. Every pass is checked: exit code, stdout byte-identical to a
  `--jobs 1` reference (single-file mode: to the first pass), packet
  totals equal to the generator's manifest. A pass that fails any check
  counts all of its items as failed (`failed_frac`, reported as `failed`
  out of `attempted`).
* `--trace 1`: runs `perfbench trace`, which times the analyzer's public
  functions layer by layer with its own spans and checks that its
  decomposition renders byte-identically to `Analyzer::analyze`, plus a
  few plain CLI passes for the corpus and observability rows. It reports
  the per-layer metrics and keeps the run's exact spans in
  `.bench_work/spans-<workload>.tsv`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

Why not `BENCH_stage_timings.json`: its percentiles are log2 bucket bounds
(2x resolution) from the program's `tcpa_obs` registry, `LogHistogram::since`
carries a stale maximum into scenarios with no samples, and most of its
scenarios run once for under a millisecond. Here every timing is an exact
wall-clock sample of a fresh process (or, in the traced run, an exact span
kept in memory), every workload runs in its own processes so no registry
state leaks between workloads, and each figure is a median over repeated
passes.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("census", "long-flow", "receiver-forensics")

# Worker threads for batch workloads. The reference host has two vCPUs
# and shares them: a pass with two workers often found only one vCPU free
# and ran at half speed, which spread `--jobs 2` pass times over 2x. One
# worker (plus the collecting main thread) fits the host.
JOBS = 1
# Per-item watchdog budget for receiver-forensics; generous, never hit.
TIMEOUT_SECS = 600
# AUDIT_PASSES: receiver-forensics writes its 1440 per-item audit trails
# (`--audit-dir`) in the reference pass and the traced run's CLI passes,
# where they are checked and their cost is `obs.overhead_frac`, but not in
# the timed passes, which keep `--metrics-out`, `--trace-out` and the
# watchdog. Timed passes writing them left ~86,000 files per run; deleting
# them at the end of a run loaded the file system (ext4, `discard`) for
# minutes: the next run's system time tripled, and over ten consecutive
# runs packets per CPU-second fell from 209,000 to 67,000.
# The `--metrics-out` and `--trace-out` documents.
OBS_DOCS = ("metrics.json", "trace.json")
# Set-up runs: a few discarded warm-ups, then SETUP_PER_PASS after every
# timed pass; set-up is reported as their median. Spreading them over the
# whole timed window samples the host as the passes do; a burst of runs
# in one tenth of a second recorded the host's speed at one moment only.
SETUP_WARMUP = 3
SETUP_PER_PASS = 4
# Bounds on timed passes per run.
MIN_PASSES = 3
MAX_PASSES = 400
# Plain CLI passes made by a traced run for its corpus and obs rows.
TRACE_CLI_REPS = 5
# No single tcpanaly process may take longer than this.
PROCESS_LIMIT_S = 60
# After this many seconds a run starts no optional pass, so that even a
# much slower program finishes within the benchmark's time limit.
RUN_BUDGET_S = 110

# CPU_TIME: the bounded throughput and set-up metrics use the CPU seconds
# (user + system, all threads) that wait4 reports for the tcpanaly
# processes, not their wall seconds. On the shared two-vCPU reference host
# wall time also holds the time the hypervisor gave other tenants: over a
# 12-minute probe the 30-second medians of a census pass spread 0.071
# (IQR / median) in wall time and 0.049 in CPU time (long-flow: 0.040 and
# 0.028), and five seeded runs spread 0.089 and 0.056. Wall-clock figures
# are still printed, unbounded. With one worker thread, CPU and wall time
# differ only by what the host took away, and by waiting the program adds,
# which CPU time cannot see.
END_TO_END_UNITS = {"packets_per_cpu_s": "packets/s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER_UNITS = {
    "ingest.ns_per_packet": "ns",
    "ingest.records": "count",
    "ingest.bytes": "bytes",
    "ingest.salvage.bytes_skipped": "bytes",
    "vantage.ns_per_packet": "ns",
    "vantage.calls": "count",
    "calibrate.ns_per_packet": "ns",
    "calibrate.findings": "count",
    "split.ns_per_packet": "ns",
    "split.connections": "count",
    "sender_replay.ns_per_packet": "ns",
    "sender_replay.calls": "count",
    "sender_replay.packets": "count",
    "sender_replay.growth": "ratio",
    "fingerprint.rank_ns_per_conn": "ns",
    "fingerprint.close_frac": "ratio",
    "receiver.ns_per_packet": "ns",
    "receiver_fp.ns_per_packet": "ns",
    "receiver.acks": "count",
    "handshake.ns_per_conn": "ns",
    "stats.ns_per_conn": "ns",
    "render.ns_per_item": "ns",
    "render.bytes": "bytes",
    "corpus.parallel_efficiency": "ratio",
    "process.cpu_util": "ratio",
    "obs.overhead_frac": "ratio",
    "watchdog.overhead_frac": "ratio",
    "obs.bytes_written": "bytes",
    "item.p50_ms": "ms",
    "item.p90_ms": "ms",
    "item.samples": "count",
    "trace.overhead_frac": "ratio",
    "other.frac": "ratio",
}

# Counters that depend only on the corpus: identical on every run of a seed.
EXACT_COUNTERS = (
    "ingest.records",
    "ingest.bytes",
    "split.connections",
    "sender_replay.calls",
    "sender_replay.packets",
    "receiver.acks",
    "calibrate.findings",
    "render.bytes",
)


class BenchError(Exception):
    """A failure that makes the run meaningless (no result is printed)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


# When the run's measuring began (reset once the build is done).
RUN_START = time.perf_counter()


def over_budget():
    return time.perf_counter() - RUN_START > RUN_BUDGET_S


class Proc:
    """One finished process: exit code, wall seconds, rusage, stdout."""

    def __init__(self, code, wall, rusage, stdout):
        self.code = code
        self.wall = wall
        self.rss_mb = rusage.ru_maxrss / 1024.0
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.stdout = stdout


def spawn(argv, out_path, err_path):
    """Runs argv to completion with stdout/stderr in files; times it.

    posix_spawn + wait4 gives this child's own wall time and rusage
    (peak RSS, CPU) without any shell or helper process in between.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    killer = threading.Timer(PROCESS_LIMIT_S, os.kill, (pid, 9))
    killer.start()
    try:
        _, status, rusage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    with open(out_path, "rb") as f:
        stdout = f.read()
    return Proc(os.waitstatus_to_exitcode(status), wall, rusage, stdout)


def build(root):
    """Builds tcpanaly and perfbench from source; returns their paths."""
    for required in ("Cargo.toml", "crates/core/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, required)):
            raise BenchError(f"{required} missing: run from the root of a tcpanaly checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "tcpanaly", "--bin", "tcpanaly"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "tcpanaly"), os.path.join(target, "release", "perfbench")


class Workload:
    """A generated corpus plus the exact command lines that analyze it."""

    def __init__(self, name, work, tcpanaly, manifest):
        self.name = name
        self.work = work
        self.tcpanaly = tcpanaly
        self.manifest = manifest
        self.corpus = os.path.join(work, "corpus")
        self.items = [item["file"] for item in manifest["items"]]
        self.records = {item["file"]: item["records"] for item in manifest["items"]}
        self.batch = name != "long-flow"
        self.jobs = JOBS
        # A receiver-forensics command with audit trails writes its obs
        # outputs into a fresh directory, all deleted when the benchmark
        # run ends: deleting 1440 audit trails between passes (the root
        # file system is ext4 mounted with `discard`) made the next
        # passes' file creation slow by up to 2.5x. Every other command
        # rewrites the same two documents in place, emptied first so that
        # one it fails to write does not parse.
        self.obs_root = os.path.join(work, "obs")
        self.obs_runs = 0
        self.obs = None
        self.audited = False

    def next_obs_flags(self, audit):
        self.audited = audit
        if audit:
            self.obs_runs += 1
            self.obs = os.path.join(self.obs_root, str(self.obs_runs))
        else:
            self.obs = os.path.join(self.obs_root, "timed")
            os.makedirs(self.obs, exist_ok=True)
            for doc in OBS_DOCS:
                if os.path.exists(os.path.join(self.obs, doc)):
                    os.truncate(os.path.join(self.obs, doc), 0)
        flags = ["--audit-dir", os.path.join(self.obs, "audit")] if audit else []
        return flags + [
            "--metrics-out", os.path.join(self.obs, OBS_DOCS[0]),
            "--trace-out", os.path.join(self.obs, OBS_DOCS[1]),
        ]

    def batch_argv(self, target, jobs=JOBS, obs=True, watchdog=True, audit=False):
        """A batch command line. Timed receiver-forensics passes leave out
        `--audit-dir` (see AUDIT_PASSES); `audit=True` puts it back."""
        argv = [self.tcpanaly, "--jobs", str(jobs)]
        if self.name == "receiver-forensics":
            argv += ["--receiver", "--degrade", "salvage"]
            if watchdog:
                argv += ["--timeout-secs", str(TIMEOUT_SECS)]
            if obs:
                argv += self.next_obs_flags(audit)
        return argv + [target]

    def pass_commands(self, corpus, **kw):
        """The command lines of one pass over `corpus` (a directory)."""
        if self.batch:
            return [self.batch_argv(corpus, **kw)]
        return [[self.tcpanaly, "--sender", os.path.join(corpus, f)]
                for f in sorted(os.listdir(corpus))]

    def run_pass(self, commands):
        """Runs one pass; returns its processes."""
        out = os.path.join(self.work, "stdout")
        err = os.path.join(self.work, "stderr")
        return [spawn(argv, out, err) for argv in commands]

    def check_batch(self, proc, reference):
        """Problems with one batch pass, as strings (empty when correct)."""
        problems = []
        if proc.code != 0:
            problems.append(f"exit code {proc.code}")
        if proc.stdout != reference:
            problems.append("census differs from the --jobs 1 reference")
        text = proc.stdout.decode("utf-8", "replace")
        expect_head = (f"== Corpus census: {len(self.items)} traces "
                       f"({len(self.items) - self.manifest['damaged']} analyzed, "
                       f"{self.manifest['damaged']} salvaged, 0 failed) ==")
        if not text.startswith(expect_head):
            problems.append(f"census head is not {expect_head!r}")
        packets = [line.split("packets:")[1].strip() for line in text.splitlines() if "packets:" in line]
        if packets != [str(self.manifest["records"])]:
            problems.append(f"packets {packets} != manifest {self.manifest['records']}")
        if self.name == "receiver-forensics":
            audit = os.path.join(self.obs, "audit")
            trails = len(os.listdir(audit)) if os.path.isdir(audit) else 0
            if self.audited and trails != len(self.items):
                problems.append(f"{trails} audit trails for {len(self.items)} items")
            for doc in OBS_DOCS:
                try:
                    with open(os.path.join(self.obs, doc)) as f:
                        json.load(f)
                except (OSError, ValueError) as e:
                    problems.append(f"{doc}: {e}")
        return problems

    def check_files(self, procs, references):
        """Problems with one single-file pass (one process per trace)."""
        problems = []
        for name, proc, reference in zip(sorted(self.items), procs, references):
            first = proc.stdout.split(b"\n", 1)[0].decode("utf-8", "replace")
            expect = f": {self.records[name]} records (0 non-TCP skipped)"
            if proc.code != 0:
                problems.append(f"{name}: exit code {proc.code}")
            if not first.endswith(expect):
                problems.append(f"{name}: {first!r} does not end with {expect!r}")
            if reference is not None and proc.stdout != reference:
                problems.append(f"{name}: report differs from the first pass")
        return problems


def prepare(args, root):
    """Builds, generates the corpus, and returns the Workload."""
    global RUN_START
    tcpanaly, perfbench = build(root)
    RUN_START = time.perf_counter()
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    gen = subprocess.run(
        [perfbench, "gen", "--workload", args.workload, "--seed", str(args.seed), "--out", work],
        stdout=sys.stderr, stderr=sys.stderr)
    if gen.returncode != 0:
        raise BenchError("corpus generation failed")
    with open(os.path.join(work, "manifest.json")) as f:
        manifest = json.load(f)
    return Workload(args.workload, work, tcpanaly, manifest), perfbench


def remove_work(wl):
    """Deletes the run's work directory and waits until the file system
    has committed the deletion, so that its write-back and discards land
    in this run's teardown, not in the next run's timed passes."""
    shutil.rmtree(wl.work, ignore_errors=True)
    os.sync()


def reference_output(wl):
    """The reference a measured pass must reproduce byte for byte.

    Batch: the census of a `--jobs 1` run, with every obs flag (one audit
    trail per item is checked). Single file: the first pass's per-trace
    reports (their record lines are checked against the manifest). Either
    way the run doubles as a warm-up.
    """
    if wl.batch:
        procs = wl.run_pass(wl.pass_commands(wl.corpus, jobs=1, audit=True))
        problems = wl.check_batch(procs[0], procs[0].stdout)
        return procs[0].stdout, problems
    procs = wl.run_pass(wl.pass_commands(wl.corpus))
    return [p.stdout for p in procs], wl.check_files(procs, [None] * len(procs))


def check_pass(wl, procs, reference):
    if wl.batch:
        return wl.check_batch(procs[0], reference)
    return wl.check_files(procs, reference)


def measure_setup(wl, reps, samples):
    """Appends `reps` (wall, CPU) seconds of the workload's command over
    its smallest item (process start, argument parsing, directory
    expansion, worker spawn, one item, output) to `samples`."""
    smallest = os.path.join(wl.work, "smallest")
    problems = []
    for _ in range(reps):
        procs = wl.run_pass(wl.pass_commands(smallest))
        problems += [f"set-up exit code {p.code}" for p in procs if p.code != 0]
        samples.append((sum(p.wall for p in procs), sum(p.cpu for p in procs)))
    return problems


def run_plain(args, root):
    wl, _ = prepare(args, root)
    try:
        # A wrong reference or warm-up run fails the whole run: every
        # timed pass is then counted as failed.
        reference, run_problems = reference_output(wl)
        setup = []
        run_problems += measure_setup(wl, SETUP_WARMUP, [])
        for problem in run_problems[:3]:
            log(f"run incorrect: {problem}")
        # The corpus and the reference pass's audit trails are still being
        # written back; let that finish before timing starts.
        os.sync()
        rss, attempted, failed = [], 0, 0
        # Per pass (single file: per file and pass) the (wall, CPU) seconds
        # of the tcpanaly processes.
        times = {name: [] for name in (wl.items if not wl.batch else ["pass"])}
        deadline = time.perf_counter() + args.seconds
        passes = 0
        while passes < MAX_PASSES and (
            passes == 0
            or time.perf_counter() < deadline
            or (passes < MIN_PASSES and not over_budget())
        ):
            procs = wl.run_pass(wl.pass_commands(wl.corpus))
            # Checked before the set-up runs, which have obs outputs of their own.
            problems = run_problems + check_pass(wl, procs, reference)
            problems += measure_setup(wl, SETUP_PER_PASS, setup)
            attempted += len(wl.items)
            if problems:
                failed += len(wl.items)
                log(f"pass {passes} incorrect: {problems[:3]}")
            passes += 1
            rss.append(max(p.rss_mb for p in procs))
            if wl.batch:
                times["pass"].append((sum(p.wall for p in procs), sum(p.cpu for p in procs)))
            else:
                for name, proc in zip(sorted(wl.items), procs):
                    times[name].append((proc.wall, proc.cpu))
    finally:
        remove_work(wl)
    # The median pass (single file: the sum of per-file medians, which uses
    # every process's time in the few passes a run holds, and lets the
    # files' independent noise partly cancel). Bounded metrics use CPU
    # seconds; see CPU_TIME above.
    packets = wl.manifest["records"]
    per_s = {kind: packets / sum(median([t[k] for t in ts]) for ts in times.values())
             for k, kind in enumerate(("wall", "cpu"))}
    setup_wall = median([s[0] for s in setup])
    metrics = {
        "packets_per_cpu_s": per_s["cpu"],
        "peak_rss_mb": median(rss),
        "setup_s": median([s[1] for s in setup]),
    }
    print(f"workload {wl.name} seed {args.seed}: {passes} passes over {len(wl.items)} items, "
          f"{packets} packets each; set-up median of {len(setup)} runs")
    for name, value in metrics.items():
        print(f"  {name:<17} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'packets_per_s':<17} {per_s['wall']:.6g} packets/s (wall clock, not bounded)")
    print(f"  {'setup_wall_s':<17} {setup_wall:.6g} s (wall clock, not bounded)")
    print(f"  {'failed_frac':<17} {failed / attempted:.6g} ratio ({failed} of {attempted} items)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def obs_bytes(wl):
    total = 0
    if wl.obs is None:
        return total
    for dirpath, _, files in os.walk(wl.obs):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def run_traced(args, root):
    wl, perfbench = prepare(args, root)
    # The exact spans of the latest traced run of each workload outlive
    # the run's work directory.
    spans = os.path.join(root, ".bench_work", f"spans-{wl.name}.tsv")
    try:
        reference, problems = reference_output(wl)
        os.sync()
        out = subprocess.run(
            [perfbench, "trace", "--workload", wl.name, "--dir", wl.work,
             "--min-seconds", str(args.seconds / 2)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        if out.returncode != 0:
            raise BenchError("traced driver failed")
        os.replace(os.path.join(wl.work, "spans.tsv"), spans)
        traced = json.loads(out.stdout.strip().splitlines()[-1])
        metrics, checks = traced["metrics"], traced["checks"]
        if checks["equivalent"] != checks["items"]:
            problems.append(f"{checks['items'] - checks['equivalent']} items render differently "
                            "from Analyzer::analyze")
        if checks["coverage"] < 0.9:
            problems.append(f"layer self times cover {checks['coverage']:.3f} < 0.9 of traced time")
        if not checks["counters_repeat"]:
            problems.append("work counters differ between traced passes")
        if metrics["ingest.records"] != wl.manifest["records"]:
            problems.append(f"ingest.records {metrics['ingest.records']} != manifest")
        if wl.batch:
            with open(os.path.join(wl.work, "census.txt"), "rb") as f:
                if f.read() != reference:
                    problems.append("library census differs from the CLI's stdout")

        # Plain CLI passes for the corpus row, with every obs flag; for
        # receiver-forensics also with the obs flags, then the watchdog
        # flag, taken off.
        variants = {"plain": {"audit": True}}
        if wl.name == "receiver-forensics":
            variants.update({"no_obs": {"obs": False},
                             "no_watchdog": {"watchdog": False, "audit": True}})
        walls = {k: [] for k in variants}
        cpu, obs_written = [], 0
        for rep in range(TRACE_CLI_REPS):
            if rep > 0 and over_budget():
                break
            for key, kw in variants.items():
                procs = wl.run_pass(wl.pass_commands(wl.corpus, **kw))
                walls[key].append(sum(p.wall for p in procs))
                if key == "plain":
                    problems += check_pass(wl, procs, reference)
                    cpu.append(sum(p.cpu for p in procs))
                    obs_written = obs_bytes(wl)
        wall = median(walls["plain"])
        metrics["corpus.parallel_efficiency"] = checks["serial_item_s"] / (wl.jobs * wall)
        metrics["process.cpu_util"] = median(cpu) / (wall * wl.jobs)
        if wl.name == "receiver-forensics":
            metrics["obs.overhead_frac"] = wall / median(walls["no_obs"]) - 1
            metrics["watchdog.overhead_frac"] = wall / median(walls["no_watchdog"]) - 1
        else:
            metrics["obs.overhead_frac"] = 0.0
            metrics["watchdog.overhead_frac"] = 0.0
        metrics["obs.bytes_written"] = obs_written
    finally:
        remove_work(wl)

    print(f"workload {wl.name} seed {args.seed}: traced {checks['passes']} passes over "
          f"{checks['items']} items; {checks['equivalent']} render identically to "
          f"Analyzer::analyze; layers cover {checks['coverage']:.4f} of traced time; "
          f"spans in {os.path.relpath(spans, root)}")
    for name in PER_LAYER_UNITS:
        exact = "  (exact)" if name in EXACT_COUNTERS else ""
        print(f"  {name:<30} {metrics[name]:.6g} {PER_LAYER_UNITS[name]}{exact}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": checks["items"],
        "failed": checks["items"] if problems else 0,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()},
    }


def run_all(args):
    """Every workload, each in its own fresh benchmark process."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise BenchError(f"workload {name} failed")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.seed %= 2 ** 64
    root = os.getcwd()
    try:
        if args.workload == "all":
            result = run_all(args)
        elif args.trace:
            result = run_traced(args, root)
        else:
            result = run_plain(args, root)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
