#!/usr/bin/env python3
"""Layered benchmark of the introspective-analysis stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run builds the product
(intro_batch, intro_serve) and the benchmark's helper (perfbench_driver)
into .bench_build/; every run works in its own directory under
.bench_work/ and removes it at the end.  With --trace 0 the last line of
standard output is a JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of the traced replay.  See
perfbench/README.md for the workloads, the metrics and the layer map.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"
MIB = 1 << 20

WORKLOADS = ("ladder-cold", "intro-warm", "serve-small")
# Set-ups per untraced run; setup_s is their median.  intro-warm's set-up
# solves every program once to warm the cache, so it repeats fewer times.
SETUPS = {"ladder-cold": 9, "intro-warm": 3, "serve-small": 5}
# DaCapo-shaped variants (derived seeds) per profile in intro-warm.
WARM_VARIANTS = 2
# Samples of serve-small checked against the Datalog reference per run.
DATALOG_SAMPLE = 6


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(*parts):
    print(*parts, flush=True)


def check_call(argv, cwd=None, what=None):
    done = subprocess.run([str(a) for a in argv], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if done.returncode != 0:
        raise BenchError(f"{what or argv[0]} failed ({done.returncode}):\n"
                         + done.stdout[-4000:])
    return done.stdout


def build():
    """Configures once and builds the three binaries (incremental)."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not (ROOT / needed).exists():
            raise BenchError(f"no {needed} in {ROOT}: not a source checkout")
    if not (BUILD / "CMakeCache.txt").exists():
        check_call(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], what="cmake configure")
    check_call(["cmake", "--build", BUILD, "-j", "4", "--target",
                "intro_batch", "intro_serve_tool", "perfbench_driver"],
               what="cmake build")
    return {
        "batch": BUILD / "tools" / "intro_batch",
        "serve": BUILD / "tools" / "intro_serve",
        "driver": BUILD / "perfbench" / "perfbench_driver",
    }


# --------------------------------------------------------------------------
# Process measurement from outside: /proc and wait4.
# --------------------------------------------------------------------------

TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid):
    """utime+stime of pid plus of its reaped children (cutime+cstime)."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return sum(int(fields[i]) for i in (11, 12, 13, 14)) / TICK


def proc_hwm_mib(pid):
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def reap(proc, timeout=None):
    """wait4 on a Popen child; returns (exit code, rusage).  With a
    timeout, a child still running after it is killed first."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid,
                                      0 if deadline is None else os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            deadline = None
        else:
            time.sleep(0.01)


class HwmPoller:
    """Samples a process's VmHWM while it runs (VmHWM only grows, so the
    last sample before exit is its high-water mark)."""

    def __init__(self, pid):
        self.pid = pid
        self.value = 0.0
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self.run, daemon=True)
        self.thread.start()

    def run(self):
        while not self.stop.is_set():
            hwm = proc_hwm_mib(self.pid)
            if hwm is not None:
                self.value = max(self.value, hwm)
            self.stop.wait(0.02)

    def finish(self):
        self.stop.set()
        self.thread.join()
        return self.value


# Daemons still running; main() stops them whatever happens.
LIVE_DAEMONS = []


class Daemon:
    """One intro_serve at its defaults plus --no-deep and a cache dir."""

    def __init__(self, bins, workdir, cache_dir):
        self.proc = subprocess.Popen(
            [str(bins["serve"]), "--socket=serve.sock", "--no-deep",
             f"--cache-dir={cache_dir}"],
            cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        line = self.proc.stdout.readline()
        if "listening" not in line:
            self.proc.kill()
            reap(self.proc)
            raise BenchError("intro_serve did not start: " + line)
        LIVE_DAEMONS.append(self)

    def stop(self):
        """SIGTERM drains: in-flight jobs finish and children are reaped."""
        LIVE_DAEMONS.remove(self)
        self.proc.send_signal(signal.SIGTERM)
        code, usage = reap(self.proc, timeout=60)
        self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"intro_serve exited with {code}")
        return usage


# --------------------------------------------------------------------------
# Workload set-up.
# --------------------------------------------------------------------------

def write_joblist(path, jobs):
    path.write_text("".join(f"{name}\t{file}\n" for name, file in jobs))


def programs(directory):
    return sorted((p.stem, p) for p in directory.glob("*.intro"))


class Setup:
    """Inputs, job list, fresh cache directory and (served) daemon."""

    def __init__(self, workload, seed, seconds, bins, workdir):
        self.workload = workload
        self.workdir = workdir
        self.daemon = None
        inputs = workdir / "inputs"
        self.cache = workdir / "cache"
        self.cache.mkdir(parents=True)
        driver = bins["driver"]
        if workload == "ladder-cold":
            info = json.loads(check_call(
                [driver, "gen-dacapo", seed, 1, inputs]))
            self.distinct = programs(inputs)
            self.jobs = list(self.distinct)
            self.ladder = "deep"
        elif workload == "intro-warm":
            info = json.loads(check_call(
                [driver, "gen-dacapo", seed, WARM_VARIANTS, inputs]))
            self.distinct = programs(inputs)
            # At least 100 submissions and about seven a second of run.
            rounds = max(-(-100 // len(self.distinct)),
                         -(-7 * seconds // len(self.distinct)))
            self.jobs = self.distinct * rounds
            self.ladder = "no-deep"
            # Warm the cache through the product's local mode, then serve.
            check_call([bins["batch"], "--no-deep", "--workers=2",
                        f"--cache-dir={self.cache}", inputs],
                       what="cache warm-up")
        else:
            # Each program three times, a round apart: one miss and store,
            # then two hits.  About 150 submissions a second of run.
            count = max(334, 50 * seconds)
            info = json.loads(check_call(
                [driver, "gen-small", seed, count, inputs]))
            self.distinct = programs(inputs)
            rng = random.Random(seed)
            order = list(self.distinct)
            rng.shuffle(order)
            self.jobs = order * 3
            self.ladder = "no-deep"
        self.input_count = info["inputs"]
        self.input_bytes = info["bytes"]
        self.replaced = info.get("replaced")
        self.joblist = workdir / "jobs.tsv"
        write_joblist(self.joblist, self.jobs)
        if workload != "ladder-cold":
            self.daemon = Daemon(bins, workdir, self.cache)

    def teardown(self):
        if self.daemon:
            self.daemon.stop()
            self.daemon = None


def set_up(workload, seed, seconds, bins, rundir, times):
    """Sets up `times` times; all but the last are torn down again.
    Returns the last set-up and the set-up durations."""
    durations = []
    setup = None
    for index in range(times):
        if setup:
            setup.teardown()
            shutil.rmtree(setup.workdir)
        start = time.perf_counter()
        setup = Setup(workload, seed, seconds, bins, rundir / f"setup{index}")
        durations.append(time.perf_counter() - start)
    return setup, durations


# --------------------------------------------------------------------------
# The product runs.
# --------------------------------------------------------------------------

def run_ladder_cold(setup, bins, index):
    """One intro_batch pass in local mode at its defaults over the inputs,
    with an empty cache directory of its own."""
    reports = setup.workdir / f"job-reports{index}"
    batch_report = setup.workdir / f"batch{index}.json"
    cache = setup.cache if index == 0 else setup.workdir / f"cache{index}"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [str(bins["batch"]), f"--cache-dir={cache}",
         f"--report={batch_report}", f"--job-reports={reports}",
         str(setup.workdir / "inputs")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    poller = HwmPoller(proc.pid)
    code, usage = reap(proc)
    wall = time.perf_counter() - start
    parent_hwm = poller.finish()
    if code not in (0, 1):
        raise BenchError(f"intro_batch exited with {code}")
    batch = json.loads(batch_report.read_text())
    timing = {j["name"]: j["attempt_seconds"] for j in batch["timing"]["jobs"]}
    # All nine jobs are submitted together and run one after another in
    # name order, so a job's latency is the supervised time of the jobs
    # before it plus its own.
    jobs = []
    elapsed = 0.0
    for record in batch["deterministic"]["jobs"]:
        name = record["name"]
        path = reports / f"{name}.report.json"
        elapsed += sum(timing[name])
        jobs.append({
            "name": name,
            "clean": record["final_class"] == "clean",
            "final_class": record["final_class"],
            "attempts": len(record["attempts"]),
            "latency_s": elapsed,
            "run_s": sum(timing[name]),
            "report": path.read_text().strip() if path.exists() else "",
        })
    return {
        "jobs": jobs,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "parent_rss_mb": parent_hwm,
        "retained": None,
    }


def run_served(setup, bins, _index):
    """One pass on the set-up's daemon: two closed-loop connections from one
    client process."""
    daemon = setup.daemon
    out = setup.workdir / "load.json"
    cpu_before = proc_cpu_s(daemon.proc.pid)
    check_call([bins["driver"], "load", "serve.sock", setup.joblist, out],
               cwd=setup.workdir, what="load")
    cpu = proc_cpu_s(daemon.proc.pid) - cpu_before
    parent_hwm = proc_hwm_mib(daemon.proc.pid)
    usage = daemon.stop()
    setup.daemon = None
    load = json.loads(out.read_text())
    stats = json.loads(load["stats"]) if load["stats"] != "null" else {}
    jobs = []
    for record in load["jobs"]:
        clean = (record["ok"] and record["state"] == "done"
                 and record["final_class"] == "clean"
                 and record["final_ns"] >= 0)
        jobs.append({
            "name": record["name"],
            "clean": clean,
            "final_class": record["final_class"] or record["error"],
            "attempts": record["attempts"],
            "latency_s": (record["final_ns"] - record["submit_ns"]) / 1e9,
            "run_s": (record["final_ns"] - record["submit_ns"]) / 1e9,
            "queue_wait_s": (record["first_line_ns"] - record["submit_ns"])
            / 1e9,
            "roundtrip_s": (record["done_ns"] - record["submit_ns"]) / 1e9,
            "report": record["report"],
        })
    first = min(r["submit_ns"] for r in load["jobs"])
    last = max(r["final_ns"] for r in load["jobs"])
    return {
        "jobs": jobs,
        "wall_s": (last - first) / 1e9,
        "cpu_s": cpu,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "parent_rss_mb": parent_hwm,
        "retained": stats.get("jobs"),
    }


def run_product(setup, bins, count):
    """Runs the workload's product pass `count` times; the result holds
    every job and the median of each per-pass figure."""
    run = run_ladder_cold if setup.workload == "ladder-cold" else run_served
    results = [run(setup, bins, index) for index in range(count)]
    log("  pass wall_s: " + ", ".join(f"{r['wall_s']:.3f}" for r in results))
    combined = {key: benchlib.median([r[key] for r in results])
                for key in ("wall_s", "cpu_s", "peak_rss_mb",
                            "parent_rss_mb")}
    combined["jobs"] = [job for r in results for job in r["jobs"]]
    combined["retained"] = results[-1]["retained"]
    return combined


# --------------------------------------------------------------------------
# Output checks and the exact-repeat guard.
# --------------------------------------------------------------------------

def reference(setup, bins, seed):
    """In-process cold results per distinct program (plus the Datalog
    sample on serve-small).  Runs after the measured window."""
    sample_file = setup.workdir / "datalog-sample.txt"
    sample = []
    if setup.workload == "serve-small":
        names = [name for name, _ in setup.distinct]
        sample = random.Random(seed * 7919 + 1).sample(
            names, min(DATALOG_SAMPLE, len(names)))
    sample_file.write_text("".join(f"{name}\n" for name in sample))
    joblist = setup.workdir / "reference.tsv"
    write_joblist(joblist, setup.distinct)
    out = setup.workdir / "reference.json"
    check_call([bins["driver"], "reference", setup.ladder, joblist, out,
                sample_file], what="reference")
    return {j["name"]: j for j in json.loads(out.read_text())["jobs"]}


def job_flags(job, section):
    """Reasons a job's run is not an exact repeat: only tuple budgets may
    trip, and no watchdog or retry may fire."""
    flags = []
    if job["attempts"] != 1:
        flags.append(f"{job['attempts']} attempts (retry fired)")
    if job["final_class"] == "watchdog_timeout":
        flags.append("watchdog fired")
    for attempt in (section or {}).get("outcome", {}).get("attempts", []):
        if attempt.get("status") not in ("Completed", "TupleBudgetExceeded"):
            flags.append(f"rung {attempt.get('level')} ended "
                         f"{attempt.get('status')}")
    return flags


def check_outputs(product, refs):
    """Marks each job failed unless it finished clean, matches the
    in-process reference byte for byte (wall-clock members aside) and ran
    as an exact repeat.  Returns the deterministic counts."""
    counts = {"jobs": [], "cache": {"hits": 0, "misses": 0}, "classes": {}}
    for job in product["jobs"]:
        ref = refs.get(job["name"], {})
        section = benchlib.deterministic_section(job["report"])
        problems = [] if job["clean"] else [f"class {job['final_class']}"]
        if "deterministic" not in ref:
            problems.append("no reference: " + ref.get("error", "missing"))
        elif not benchlib.same_result(job["report"], ref["deterministic"]):
            problems.append("report differs from the in-process run")
        for finding in ref.get("datalog_findings", []):
            problems.append("Datalog reference: " + finding)
        problems += job_flags(job, section)
        job["failed"] = bool(problems)
        for problem in problems:
            log(f"FLAG {job['name']}: {problem}")
        try:
            cache = json.loads(job["report"]).get("cache") or {}
        except ValueError:
            cache = {}
        counts["cache"]["hits"] += cache.get("hits", 0)
        counts["cache"]["misses"] += cache.get("misses", 0)
        cls = job["final_class"]
        counts["classes"][cls] = counts["classes"].get(cls, 0) + 1
        outcome = (section or {}).get("outcome", {})
        counts["jobs"].append([job["name"], outcome.get("level"),
                               benchlib.rung_counts(section or {})])
    return counts


def source_digest():
    """Digest of the sources the benchmarked binaries are built from, so
    that only runs of the same code are compared."""
    sha = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += (p for p in (ROOT / top).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts)
    for path in sorted(files):
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0")
        sha.update(path.read_bytes() + b"\0")
    return sha.hexdigest()[:16]


def repeat_guard(workload, seed, seconds, counts, correct):
    """Fails when an earlier correct run of the same code at the same seed
    counted differently.  Only a correct run's counts are recorded."""
    digest = benchlib.digest(counts)
    ledger = (WORK / "repeat"
              / f"{workload}-{seed}-{seconds}-{source_digest()}.json")
    if ledger.exists():
        previous = json.loads(ledger.read_text())
        if previous["digest"] != digest:
            log(f"FLAG exact-repeat: counts {digest} differ from an earlier "
                f"run at seed {seed} ({previous['digest']})")
            return False
    elif correct:
        ledger.parent.mkdir(parents=True, exist_ok=True)
        ledger.write_text(json.dumps({"digest": digest, "counts": counts}))
    return True


def print_counts(counts):
    log(f"deterministic counts: digest {benchlib.digest(counts)}  "
        f"cache hits {counts['cache']['hits']} misses "
        f"{counts['cache']['misses']}  classes {counts['classes']}")
    winners = {}
    for _, level, _ in counts["jobs"]:
        winners[level] = winners.get(level, 0) + 1
    log(f"  winning rung per job: {winners}")
    seen = set()
    for name, level, rungs in counts["jobs"]:
        if name in seen or len(seen) >= 12:
            continue
        seen.add(name)
        rows = " ".join(f"{r[0]}:{r[2]}t/{r[3]}p" for r in rungs)
        log(f"  {name}: won {level}; {rows}")


# --------------------------------------------------------------------------
# The two kinds of run.
# --------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def passes(args):
    """ladder-cold repeats its nine-job pass, one per ten seconds of run
    (two at --seconds 20; a pass takes about 13 s and cannot be cut).  The
    served workloads size their job list instead."""
    if args.workload == "ladder-cold":
        return max(1, round(args.seconds / 10))
    return 1


def describe(setup, count):
    replaced = ("" if setup.replaced is None
                else f" ({setup.replaced} exploding draws replaced)")
    log(f"{setup.workload}: {setup.input_count} inputs, {setup.input_bytes} "
        f"bytes{replaced}; {len(setup.jobs)} jobs x {count} passes")


def run_untraced(args, bins, rundir):
    setup, setups = set_up(args.workload, args.seed, args.seconds, bins,
                           rundir, SETUPS[args.workload])
    describe(setup, passes(args))
    product = run_product(setup, bins, passes(args))
    refs = reference(setup, bins, args.seed)
    counts = check_outputs(product, refs)
    print_counts(counts)
    latencies = [j["latency_s"] * 1e3 for j in product["jobs"]]
    failed = sum(j["failed"] for j in product["jobs"])
    repeat_ok = repeat_guard(args.workload, args.seed, args.seconds, counts,
                             failed == 0)
    metrics = {
        "setup_s": metric(benchlib.median(setups), "s"),
        "wall_s": metric(product["wall_s"], "s"),
        "cpu_s": metric(product["cpu_s"], "s"),
        "job_p50_ms": metric(benchlib.median(latencies), "ms"),
        "peak_rss_mb": metric(product["peak_rss_mb"], "MiB"),
        "parent_rss_mb": metric(product["parent_rss_mb"], "MiB"),
    }
    for name, m in metrics.items():
        log(f"  {name:14s} {m['value']:12.4f} {m['unit']}")
    p90 = benchlib.percentile(latencies, 0.9)
    log(f"  {'job_p90_ms':14s} " + (f"{p90:12.4f} ms" if p90 is not None else
        f"{'-':>12s}    (needs >= 100 jobs, have {len(latencies)})"))
    log(f"  jobs attempted {len(latencies)}, failed {failed}; "
        f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    return {"correct": failed == 0 and repeat_ok,
            "attempted": len(latencies), "failed": failed,
            "metrics": metrics}


def spans_by_job(spans, selfs):
    """{job: {name: (total duration, total self time)}} in seconds."""
    table = {}
    for span, self_ns in zip(spans, selfs):
        name, start, end, _, job = span
        row = table.setdefault(job, {})
        total, own = row.get(name, (0.0, 0.0))
        row[name] = (total + (end - start) / 1e9, own + self_ns / 1e9)
    return table


def run_traced(args, bins, rundir):
    setup, _ = set_up(args.workload, args.seed, args.seconds, bins, rundir, 1)
    describe(setup, 1)
    product = run_product(setup, bins, 1)
    refs = reference(setup, bins, args.seed)
    counts = check_outputs(product, refs)

    # The replay starts from the cache state the product run started from.
    replay_cache = setup.cache
    sup_cache = setup.cache
    if args.workload != "intro-warm":
        replay_cache = setup.workdir / "replay-cache"
        sup_cache = setup.workdir / "replay-sup-cache"
    out = setup.workdir / "replay.json"
    argv = [bins["driver"], "replay", setup.ladder, setup.joblist,
            replay_cache, sup_cache, setup.workdir / "store-scratch", out]
    served = args.workload != "ladder-cold"
    if served:
        argv.append("--served")
    check_call(argv, what="replay")
    replay = json.loads(out.read_text())

    # The replay must have measured the same work as the product run.
    failed = 0
    for job, rjob in zip(product["jobs"], replay["jobs"]):
        section = benchlib.deterministic_section(job["report"]) or {}
        want = [list(r) for r in benchlib.rung_counts(section)]
        got = [[a["level"], a["round"], a["tuples"], a["pops"]]
               for a in rjob["attempts"]]
        problems = []
        if want != got:
            problems.append(f"replay rungs {got} != child report {want}")
        if not benchlib.same_result(job["report"], rjob["deterministic"]):
            problems.append("replay report differs from the product's")
        if rjob["supervised_class"] != "clean" or not rjob["report_parsed"]:
            problems.append("supervised replay " + rjob["supervised_class"])
        if not rjob["frames_ok"]:
            problems.append("frame codec round trip failed")
        if problems or job["failed"]:
            failed += 1
        for problem in problems:
            log(f"FLAG replay {rjob['name']}: {problem}")
    if len(replay["jobs"]) != len(product["jobs"]):
        failed += 1

    spans = replay["spans"]
    selfs = benchlib.self_times(spans)
    per_job = spans_by_job(spans, selfs)
    n = len(replay["jobs"])

    def self_ms(name):
        return sum(row.get(name, (0, 0))[1] for row in per_job.values()) \
            * 1e3 / n

    attempts = [a for j in replay["jobs"] for a in j["attempts"]]
    tuples = sum(a["tuples"] for a in attempts)
    solve_s = sum(a["seconds"] for a in attempts)
    useful = 0
    for job in replay["jobs"]:
        won = [a for a in job["attempts"] if a["level"] == job["level"]
               and a["status"] == "Completed"]
        useful += won[-1]["tuples"] if won else 0
    hits = sum(j["hits"] for j in replay["jobs"])
    misses = sum(j["misses"] for j in replay["jobs"])

    # Supervision adds what the child's own work (parse, validate,
    # fingerprint, ladder, report) does not account for.
    child_work = ("frontend.parse", "ir.validate", "cache.fingerprint",
                  "introspect.ladder", "support.json_write")
    overhead, supervised = [], []
    for job in sorted(per_job):
        row = per_job[job]
        own = sum(row.get(name, (0, 0))[0] for name in child_work)
        supervised.append(row["supervise.job"][0])
        overhead.append((row["supervise.job"][0] - own) * 1e3)
    queue_wait = roundtrip = 0.0
    if served:
        queue_wait = benchlib.median(
            [j["queue_wait_s"] * 1e3 for j in product["jobs"]])
        roundtrip = benchlib.median(
            [(j["roundtrip_s"] - s) * 1e3
             for j, s in zip(product["jobs"], supervised)])

    metrics = {
        "frontend.parse_ms": metric(self_ms("frontend.parse"), "ms"),
        "frontend.input_mb": metric(
            sum(j["input_bytes"] for j in replay["jobs"]) / MIB, "MiB"),
        "ir.validate_ms": metric(self_ms("ir.validate"), "ms"),
        "cache.fingerprint_ms": metric(self_ms("cache.fingerprint"), "ms"),
        "cache.probe_ms": metric(self_ms("cache.probe"), "ms"),
        "cache.store_ms": metric(self_ms("cache.store"), "ms"),
        "cache.hits": metric(hits, "count"),
        "cache.misses": metric(misses, "count"),
        "cache.hit_ratio": metric(hits / (hits + misses)
                                  if hits + misses else 0.0, "ratio"),
        "cache.read_mb": metric(
            sum(j["read_bytes"] for j in replay["jobs"]) / MIB, "MiB"),
        "cache.write_mb": metric(
            sum(j["write_bytes"] for j in replay["jobs"]) / MIB, "MiB"),
        "analysis.deep_ms": metric(self_ms("analysis.deep"), "ms"),
        "analysis.pass_a_ms": metric(self_ms("analysis.pass_a"), "ms"),
        "analysis.pass_b_ms": metric(self_ms("analysis.pass_b"), "ms"),
        "analysis.pops": metric(sum(a["pops"] for a in attempts), "count"),
        "analysis.tuples": metric(tuples, "count"),
        "analysis.tuples_per_s": metric(tuples / solve_s if solve_s else 0.0,
                                        "1/s"),
        "analysis.approx_mb_peak": metric(
            max((a["approx_bytes"] for a in attempts), default=0) / MIB,
            "MiB"),
        "analysis.budget_trips": metric(
            sum(a["status"] != "Completed" for a in attempts), "count"),
        "introspect.metrics_ms": metric(self_ms("introspect.metrics"), "ms"),
        "introspect.heuristics_ms": metric(self_ms("introspect.heuristics"),
                                           "ms"),
        "introspect.ladder_ms": metric(self_ms("introspect.ladder"), "ms"),
        "introspect.rungs_per_job": metric(len(attempts) / n, "count"),
        "introspect.useful_tuple_ratio": metric(
            useful / tuples if tuples else 0.0, "ratio"),
        "supervise.overhead_ms": metric(benchlib.median(overhead), "ms"),
        "supervise.report_kb": metric(
            sum(len(j["report"]) for j in replay["jobs"]) / 1024 / n, "KiB"),
        "supervise.report_parse_ms": metric(
            self_ms("supervise.report_parse"), "ms"),
        "supervise.attempts_per_job": metric(
            sum(j["supervised_attempts"] for j in replay["jobs"]) / n,
            "count"),
        "serve.queue_wait_ms": metric(queue_wait, "ms"),
        "serve.roundtrip_overhead_ms": metric(roundtrip, "ms"),
        "serve.frame_codec_ms": metric(self_ms("serve.frame_codec"), "ms"),
        "serve.frame_mb": metric(
            sum(j["frame_bytes"] for j in replay["jobs"]) / MIB, "MiB"),
        "serve.jobs_retained": metric(product["retained"] or 0, "count"),
        "support.json_write_ms": metric(self_ms("support.json_write"), "ms"),
        # The same jobs, untraced in the product run and traced in the
        # replay's supervised phase.
        "trace.untraced_job_s": metric(
            sum(j["run_s"] for j in product["jobs"]), "s"),
        "trace.traced_job_s": metric(sum(supervised), "s"),
    }
    log(f"{args.workload} traced replay: {n} jobs, {len(spans)} spans; "
        f"wall_s {replay['wall_ns'] / 1e9:.3f} (untraced product "
        f"{product['wall_s']:.3f})")
    for name, m in metrics.items():
        log(f"  {name:30s} {m['value']:14.4f} {m['unit']}")
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    rundir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bins = build()
        if rundir.exists():
            shutil.rmtree(rundir)
        rundir.mkdir(parents=True)
        result = (run_traced if args.trace else run_untraced)(args, bins,
                                                              rundir)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        for daemon in list(LIVE_DAEMONS):
            try:
                daemon.stop()
            except BenchError:
                pass
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
