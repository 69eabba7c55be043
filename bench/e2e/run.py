#!/usr/bin/env python3
"""End-to-end campaign benchmark for statsched (see README.md).

One run measures one workload for a fixed time and prints, as its last
stdout line, one JSON object with the keys correct, attempted, failed
and metrics:

    python3 bench/e2e/run.py --workload bulk-aho24 --seed 1 \
        --seconds 40 --trace 0

--trace 0 times `statsched_cli iterate` campaigns as untraced
subprocesses (posix_spawn to wait4) and reports the end-to-end
metrics; --trace 1 alternates those with in-process campaigns through
core::runCampaign carrying timing probes (bench/e2e/probe.cc) and
reports the per-layer metrics. --seed-set primary|heldout replaces
--seed with the fixed seeds whose stdout is committed under golden/.

The script builds what it runs from the checkout's sources first
(bench/e2e/CMakeLists.txt, into .bench_build/). Every campaign's
stdout must equal an independent rendering of the same campaign; any
mismatch or unexpected exit code is a failed run and makes the script
exit 1 after printing its result.
"""

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

E2E = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(E2E))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "e2e")
TARGETS = ["statsched_cli", "statsched_worker", "e2e_probe"]

# A loss target no campaign reaches, so every campaign runs until its
# sample cap: a fixed amount of work per workload whatever the seed,
# ending "NOT met" with exit code 3.
UNREACHABLE_LOSS = ["--loss", "0.000001"]
EXPECTED_EXIT = 3
FIXTURE_EXIT = 6
# Campaigns that outlive this are killed and counted as failed.
CAMPAIGN_TIMEOUT_S = 120.0

STATEFUL12 = ["--benchmark", "stateful", "--instances", "4"]
DURABLE = STATEFUL12 + ["--ninit", "1000", "--ndelta", "100",
                        "--max", "10000", "--threads", "1",
                        "--fault-rate", "2"]

# Each workload: its iterate flags, how it uses the journal, and its
# two seed sets (sampler seed plus flag overrides). The held-out set
# has the same shape as the primary one.
WORKLOADS = {
    "bulk-aho24": {
        "flags": ["--benchmark", "aho", "--instances", "8",
                  "--ninit", "3000", "--ndelta", "3000",
                  "--max", "6000"],
        "seed_sets": {"primary": (7, []), "heldout": (2, [])},
    },
    "paper-stateful12": {
        # One thread: a 100-assignment batch is too small for the pool,
        # which made campaigns 9% slower and their run-to-run spread
        # twice as wide, each batch waiting for the slowest cpu.
        "flags": STATEFUL12 + ["--ninit", "1000", "--ndelta", "100",
                               "--max", "60000", "--threads", "1"],
        "seed_sets": {"primary": (1, []), "heldout": (20, [])},
    },
    # Not in BENCHMARK.json: its wall time follows the host's fsync and
    # cross-process wake-up latency, which on a shared host stretch its
    # campaigns by up to 2x for minutes (see README.md). Run it by name
    # for its trace.
    "durable-sharded12": {
        "flags": DURABLE,
        "journal": "fresh",
        "shards": ["--shards", "2", "--audit-fraction", "0.05"],
        "seed_sets": {"primary": (1, []),
                      "heldout": (3, ["--benchmark", "analyzer"])},
    },
    "resume-replay12": {
        "flags": DURABLE,
        "journal": "resume",
        # The fixture journal stops after this many of the campaign's
        # 91 rounds; the timed resume replays them, then finishes.
        "fixture_rounds": 77,
        # Resuming must reproduce the uninterrupted campaign exactly.
        "golden_of": "durable-sharded12",
        "seed_sets": {"primary": (1, []),
                      "heldout": (3, ["--benchmark", "analyzer"])},
    },
}


def fail(message):
    print("e2e: " + message, file=sys.stderr)
    sys.exit(1)


def flag_value(flags, name):
    """Last value of --name in a flag list (later flags override)."""
    value = None
    for i, token in enumerate(flags[:-1]):
        if token == "--" + name:
            value = flags[i + 1]
    return value


def expected_shape(flags):
    """(samples, rounds) of a fixed-work campaign that never fails."""
    ninit = int(flag_value(flags, "ninit"))
    ndelta = int(flag_value(flags, "ndelta"))
    cap = int(flag_value(flags, "max"))
    rounds = 1 + max(0, math.ceil((cap - ninit) / ndelta))
    return ninit + (rounds - 1) * ndelta, rounds


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---- building ------------------------------------------------------

def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "e2e-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A configure that failed half-way leaves a cache but no build
    # system; configure again until the build system exists.
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", E2E, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target"] + TARGETS)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as text:
                    tail = text.read()[-4000:]
                fail("build failed (%s):\n%s" % (" ".join(step), tail))
    tools = os.path.join(BUILD_DIR, "statsched", "tools")
    return {"cli": os.path.join(tools, "statsched_cli"),
            "worker": os.path.join(tools, "statsched_worker"),
            "probe": os.path.join(BUILD_DIR, "e2e_probe")}


# ---- running -------------------------------------------------------

def spawn(argv, err_path):
    """Runs argv to completion: (stdout, exit code, wall, rusage).

    Wall time runs from posix_spawn to wait4; rusage from wait4 covers
    the child and the shard workers it reaped.
    """
    read_fd, write_fd = os.pipe()
    err_fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                     0o644)
    actions = [(os.POSIX_SPAWN_DUP2, write_fd, 1),
               (os.POSIX_SPAWN_DUP2, err_fd, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=actions)
    os.close(write_fd)
    os.close(err_fd)
    chunks = []
    deadline = start + CAMPAIGN_TIMEOUT_S
    stop_signals = [signal.SIGTERM, signal.SIGKILL]
    while True:
        ready, _, _ = select.select([read_fd], [], [],
                                    max(0.1, deadline - time.perf_counter()))
        if ready:
            chunk = os.read(read_fd, 65536)
            if not chunk:
                break
            chunks.append(chunk)
        elif stop_signals:
            # Overdue: SIGTERM lets the CLI drain and stop its
            # workers; SIGKILL follows if that does not end it.
            os.kill(pid, stop_signals.pop(0))
            deadline = time.perf_counter() + 5.0
        else:
            break
    os.close(read_fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return (b"".join(chunks).decode(errors="replace"),
            os.waitstatus_to_exitcode(status), wall, usage)


def run_probe(tools, mode, argv, out_dir, extra=()):
    command = [tools["probe"], mode] + list(extra) + argv
    stdout, code, _, _ = spawn(command,
                               os.path.join(out_dir, "probe.stderr"))
    if code != 0:
        with open(os.path.join(out_dir, "probe.stderr")) as err:
            detail = err.read()[-2000:]
        fail("e2e_probe %s exited %d:\n%s" % (mode, code, detail))
    return json.loads(stdout)


class Workload:
    """One workload's argv, journal handling and expected output."""

    def __init__(self, name, seed, seed_set, tools, out_dir):
        spec = WORKLOADS[name]
        self.name = name
        self.spec = spec
        self.tools = tools
        self.out_dir = out_dir
        overrides = []
        if seed_set is not None:
            seed, overrides = spec["seed_sets"][seed_set]
        self.seed = seed
        self.flags = (spec["flags"] + UNREACHABLE_LOSS + overrides +
                      ["--seed", str(seed)])
        self.samples, self.rounds = expected_shape(self.flags)
        self.journal = spec.get("journal")
        self.journal_path = os.path.join(out_dir, "campaign.sj")
        self.fixture = os.path.join(out_dir, "fixture.sj")
        self.golden = None
        if seed_set is not None:
            golden_name = "%s.%s.stdout" % (spec.get("golden_of", name),
                                            seed_set)
            with open(os.path.join(E2E, "golden", golden_name)) as f:
                self.golden = f.read()

    def argv(self):
        """Campaign flags exactly as the CLI and the probe get them."""
        argv = list(self.flags)
        if self.journal:
            argv += ["--journal", self.journal_path]
        if self.journal == "resume":
            argv += ["--resume"]
        if self.spec.get("shards"):
            argv += self.spec["shards"] + ["--worker",
                                           self.tools["worker"]]
        return argv

    def cli_argv(self):
        return [self.tools["cli"], "iterate"] + self.argv()

    def write_fixture(self):
        """The journal a resumed campaign starts from: the same
        campaign, stopped by a round budget (untimed)."""
        if self.journal != "resume":
            return True
        if os.path.exists(self.fixture):
            os.remove(self.fixture)
        argv = [self.tools["cli"], "iterate"] + self.flags + [
            "--journal", self.fixture,
            "--max-rounds", str(self.spec["fixture_rounds"])]
        _, code, _, _ = spawn(argv, os.path.join(self.out_dir,
                                                 "fixture.stderr"))
        return code == FIXTURE_EXIT

    def prepare_journal(self):
        """Resets the campaign journal before each timed run
        (untimed): removed for a fresh one, a fixture copy to resume."""
        if self.journal and os.path.exists(self.journal_path):
            os.remove(self.journal_path)
        if self.journal == "resume":
            shutil.copyfile(self.fixture, self.journal_path)

    def probe_extra(self):
        return ["--fixture", self.fixture] if self.journal == "resume" \
            else []

    def shape_ok(self, stdout):
        first = stdout.split("\n", 1)[0]
        return first.endswith("NOT met after %d assignments "
                              "(%d iterations)" % (self.samples,
                                                   self.rounds))


# ---- trace=0: end-to-end metrics -----------------------------------

def timed_campaign(workload):
    workload.prepare_journal()
    stdout, code, wall, usage = spawn(
        workload.cli_argv(), os.path.join(workload.out_dir, "cli.stderr"))
    return {"stdout": stdout, "exit": code, "campaign_s": wall,
            "samples_per_s": workload.samples / wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def measure_window(seconds, step):
    """Calls step() repeatedly for about `seconds`: a new call starts
    only while the typical call still fits (always at least one)."""
    start = time.perf_counter()
    results = []
    durations = []
    while True:
        begun = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return results


def end_to_end(workload, seconds, expected):
    # A probe process times set-up a few times after every campaign:
    # set-up is steady within a process but moves with the host's
    # state, so its samples are spread over the run like the campaigns.
    def step():
        run = timed_campaign(workload)
        setups = run_probe(workload.tools, "setup", workload.argv(),
                           workload.out_dir,
                           workload.probe_extra())["setup_s"]
        run["setup_s"] = statistics.median(setups)
        run["setup_reps"] = len(setups)
        return run

    runs = measure_window(seconds, step)
    failed = sum(1 for r in runs
                 if r["exit"] != EXPECTED_EXIT or r["stdout"] != expected)
    # Every metric is the median over the run's campaigns: other
    # tenants of a shared host slow single campaigns by up to 2x, and
    # the median of a run's campaigns moves less from run to run than
    # its fastest one does.
    units = {"campaign_s": "s", "samples_per_s": "1/s", "cpu_s": "s",
             "peak_rss_mb": "MB", "setup_s": "s"}
    lines = ["%d timed campaigns, %d failed; set-up timed %d times in "
             "each of %d processes" % (len(runs), failed,
                                       runs[0]["setup_reps"], len(runs))]
    metrics = {}
    for name, unit in units.items():
        q1, q2, q3 = quartiles([r[name] for r in runs])
        metrics[name] = (q2, unit)
        lines.append("  %-14s %12.6g %-4s (q1 %.6g, q3 %.6g, n=%d)" %
                     (name, q2, unit, q1, q3, len(runs)))
    return metrics, len(runs), failed, lines


# ---- trace=1: per-layer metrics ------------------------------------

def bench_sim_ns():
    """BENCH_sim.json's serial ns per solve, medium scenario."""
    try:
        with open(os.path.join(ROOT, "BENCH_sim.json")) as f:
            for scenario in json.load(f)["scenarios"]:
                if scenario["name"] == "medium":
                    return 1e9 / scenario["serial_meas_per_sec"]
    except (OSError, ValueError, KeyError):
        pass
    return None


# The journal and shard transport's share of a traced campaign.
IO_SHARES = ("journal.write_pct", "journal.sync_pct", "shard.start_pct",
             "shard.send_pct", "shard.recv_wait_pct")
# Raw counters that only a change of the workload moves; printed with
# the per-layer metrics, and kept in the trace file.
SHAPE_COUNTS = ("rounds", "sampler_draws", "memo_lookups",
                "estimator_estimates", "sim_solves", "parallel_batches",
                "journal_recorded", "journal_replayed", "journal_bytes",
                "shard_frames_sent", "shard_remote_measurements",
                "shard_audits")


def per_layer(raw):
    """Per-layer metrics of one traced campaign (see README.md)."""
    wall = raw["wall_s"]
    draws = max(1, raw["sampler_draws"])
    lookups = raw["memo_lookups"]
    estimates = max(1, raw["estimator_estimates"])
    estimator = raw["estimator_extend_s"] + raw["estimator_estimate_s"]
    opened = raw["open_s"] - raw["open_journal_io_s"]
    journal_io = raw["journal_write_s"] + raw["journal_sync_s"]
    stored = raw["journal_recorded"]

    def pct(seconds):
        return 100.0 * seconds / wall

    return {
        "sampler.self_s": (raw["sampler_s"], "s"),
        "sampler.attempts_per_draw":
            (raw["sampler_attempts"] / draws, "ratio"),
        "sampler.ns_per_draw": (1e9 * raw["sampler_s"] / draws, "ns"),
        "sampler.share_pct": (pct(raw["sampler_s"]), "%"),
        "memo.self_s": (raw["memo_s"], "s"),
        "memo.hit_ratio":
            (raw["memo_hits"] / lookups if lookups else 0.0, "ratio"),
        "memo.ns_per_lookup":
            (1e9 * raw["memo_s"] / lookups if lookups else 0.0, "ns"),
        "memo.share_pct": (pct(raw["memo_s"]), "%"),
        "estimator.extend_s": (raw["estimator_extend_s"], "s"),
        "estimator.estimate_s": (raw["estimator_estimate_s"], "s"),
        "estimator.shortcut_hits":
            (raw["estimator_shortcut_hits"], "count"),
        "estimator.ms_per_estimate": (1e3 * estimator / estimates, "ms"),
        "estimator.share_pct": (pct(estimator), "%"),
        "sim.busy_pct": (pct(raw["sim_busy_s"]), "%"),
        "sim.iterations_per_solve":
            (raw["sim_iterations"] / raw["sim_solves"]
             if raw["sim_solves"] else 0.0, "ratio"),
        "parallel.self_pct":
            (pct(raw["parallel_wall_s"] -
                 raw["sim_busy_s"] / raw["threads"]), "%"),
        "journal.write_pct": (pct(raw["journal_write_s"]), "%"),
        "journal.sync_pct": (pct(raw["journal_sync_s"]), "%"),
        "journal.recover_pct":
            (pct(opened) if raw["resumed"] else 0.0, "%"),
        "journal.syncs": (raw["journal_syncs"], "count"),
        "journal.bytes_per_measurement":
            (raw["journal_bytes"] / stored if stored else 0.0, "B"),
        "shard.start_pct": (pct(raw["shard_start_s"]), "%"),
        "shard.send_pct": (pct(raw["shard_send_s"]), "%"),
        "shard.recv_wait_pct": (pct(raw["shard_recv_s"]), "%"),
        "shard.bytes_sent": (raw["shard_bytes_sent"], "B"),
        "shard.reissues": (raw["shard_reissues"], "count"),
        "resilient.failures": (raw["resilient_failures"], "count"),
        "resilient.retries": (raw["resilient_retries"], "count"),
        "resilient.quarantined": (raw["resilient_quarantined"], "count"),
        "campaign.wall_s": (wall, "s"),
        "campaign.ns_per_sample": (1e9 * wall / raw["sampled"], "ns"),
        "campaign.round_p50_ms": (1e3 * raw["round_p50_s"], "ms"),
        "campaign.substrate_s": (raw["substrate_s"], "s"),
        "campaign.residual_s":
            (wall - raw["sampler_s"] - raw["memo_s"] - estimator -
             raw["substrate_s"] - journal_io - opened, "s"),
    }


def traced(workload, seconds, expected):
    trace_file = os.path.join(workload.out_dir,
                              workload.name + ".trace.json")

    def pair():
        untraced = timed_campaign(workload)
        probe = run_probe(workload.tools, "trace", workload.argv(),
                          workload.out_dir,
                          ["--trace-out", trace_file] +
                          workload.probe_extra())
        return untraced, probe

    pairs = measure_window(seconds, pair)
    failed = 0
    for untraced, probe in pairs:
        # The traced campaign runs the CLI's own substrate in-process:
        # its rendering must match both the CLI run next to it and the
        # reference, and the replayed estimator must land on the
        # campaign's UPB bits.
        if (probe["exit"] != EXPECTED_EXIT or
                probe["stdout"] != expected or
                not probe["raw"]["upb_bits_match"]):
            failed += 1
        if (untraced["exit"] != EXPECTED_EXIT or
                untraced["stdout"] != probe["stdout"]):
            failed += 1
    layers = [per_layer(probe["raw"]) for _, probe in pairs]
    metrics = {name: (statistics.median(l[name][0] for l in layers),
                      unit)
               for name, (_, unit) in layers[0].items()}
    campaign_s = statistics.median(u["campaign_s"] for u, _ in pairs)
    traced_s = statistics.median(p["raw"]["total_s"] for _, p in pairs)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / campaign_s - 1),
                                     "%")

    lines = ["%d untraced + %d traced campaigns, %d failed; spans in %s"
             % (len(pairs), len(pairs), failed,
                os.path.relpath(trace_file, ROOT))]
    for name, (value, unit) in metrics.items():
        lines.append("  %-32s %14.6g %s" % (name, value, unit))
    raws = [probe["raw"] for _, probe in pairs]
    per_sample_ns = 1e9 * campaign_s / workload.samples
    reference_ns = bench_sim_ns()
    lines.append("reconciliation with BENCH_sim.json:")
    if raws[0]["sim_items"]:
        lines.append("  in-situ simulator   %8.0f ns per solve" %
                     statistics.median(1e9 * r["sim_busy_s"] /
                                       r["sim_items"] for r in raws))
    else:
        lines.append("  in-situ simulator   (solves run in shard "
                     "worker processes)")
    if reference_ns:
        lines.append("  BENCH_sim medium    %8.0f ns per solve (serial)"
                     % reference_ns)
        lines.append("  campaign            %8.0f ns per accepted "
                     "sample = %.0fx BENCH_sim" %
                     (per_sample_ns, per_sample_ns / reference_ns))
    lines.append("  of which sampler %.1f%%, memo %.1f%%, estimator "
                 "%.1f%%, simulator %.1f%% (busy, all threads), "
                 "journal + shard I/O %.1f%%, residual %.1f%%" % (
                     tuple(metrics[k][0] for k in (
                         "sampler.share_pct", "memo.share_pct",
                         "estimator.share_pct", "sim.busy_pct")) +
                     (statistics.median(sum(l[k][0] for k in IO_SHARES)
                                        for l in layers),
                      100 * metrics["campaign.residual_s"][0] /
                      metrics["campaign.wall_s"][0])))
    # Counts the workload's shape fixes: context, not metrics.
    lines.append("counts: " + ", ".join(
        "%s %d" % (key, raws[0][key]) for key in SHAPE_COUNTS))
    return metrics, 2 * len(pairs), failed, lines


# ---- main ----------------------------------------------------------

def filesystem_type(path):
    result = subprocess.run(["stat", "-f", "-c", "%T", path],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    seeds = parser.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seed", type=int)
    seeds.add_argument("--seed-set", choices=["primary", "heldout"])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append this run's result to FILE as one "
                        "JSON line, for compare.py")
    args = parser.parse_args()
    started = time.time()

    tools = build()
    out_dir = os.path.join(BUILD, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workload = Workload(args.workload, args.seed, args.seed_set, tools,
                        out_dir)
    print("workload %s, seed %d%s" % (
        workload.name, workload.seed,
        " (seed set %s)" % args.seed_set if args.seed_set else ""))
    print("command: statsched_cli iterate " + " ".join(
        os.path.relpath(a, ROOT) if a.startswith(BUILD) else a
        for a in workload.argv()))
    print("host: %d cpus; journal directory on %s" % (
        os.cpu_count() or 0, filesystem_type(out_dir)))

    problems = []
    if not workload.write_fixture():
        problems.append("fixture campaign did not stop at its round "
                        "budget")
    # Every campaign's stdout must equal the golden when the seed set
    # has one, and the reference rendering otherwise.
    reference = run_probe(tools, "reference", workload.argv(), out_dir)
    expected = workload.golden or reference["stdout"]
    if reference["exit"] != EXPECTED_EXIT or \
            not workload.shape_ok(reference["stdout"]):
        problems.append("reference campaign did not run its fixed "
                        "work: exit %d, %r" % (reference["exit"],
                                               reference["stdout"][:120]))
    if reference["stdout"] != expected:
        problems.append("reference stdout differs from the golden")

    if args.trace:
        metrics, attempted, failed, lines = traced(
            workload, args.seconds, expected)
    else:
        metrics, attempted, failed, lines = end_to_end(
            workload, args.seconds, expected)
    for line in problems + lines:
        print(line)
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({
                "workload": workload.name, "seed": workload.seed,
                "seed_set": args.seed_set, "trace": args.trace,
                "seconds": args.seconds, "started": started,
                "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
