#!/usr/bin/env python3
"""Benchmark of the iadm simulator: four long-horizon workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sf_churn --seed 1 --seconds 25 --trace 0

The harness builds the release `iadm-cli` binary from source (into
$CARGO_TARGET_DIR, default `.bench_build`), then:

* `--trace 0` repeats the workload's `iadm-cli sweep` command, each time
  followed by the same command cut to a one-cycle horizon, until
  `--seconds` have passed, and reports host-side end-to-end metrics
  (medians over the repetitions);
* `--trace 1` also builds `perfbench/trace`, runs the same campaign once
  untraced through the CLI and once traced through the library, derives
  per-layer self times from the recorded spans, and adds component probes.

Every artifact is checked: exit status, packet conservation, flit
conservation, `misrouted == 0`, and a digest of every run's `stats`
object against the digest recorded in `perfbench/digests.json` for that
(workload, seed), or, for a seed with no recorded digest, against the
first repetition of the same invocation. The last line of standard
output is one JSON object: `correct`, `attempted` and `failed` (simulation
runs checked and runs that failed a check) and `metrics`.

`--record` runs the workload once and prints the digests to record for
`--seed` instead of measuring.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
OUT_DIR = ".bench_out"
DEFAULT_SEED = 1
MIN_REPS = 3
# A run stops starting commands this long after it began, whatever
# MIN_REPS says, so a broken program cannot keep it past its time limit.
RUN_LIMIT_S = 100
# Set-up repetitions after each full run: at least one, then more while
# they stay cheap.
SETUP_REPS_MAX = 5
SETUP_BUDGET_S = 0.5
CHILD_TIMEOUT_S = 45
BUILD_TIMEOUT_S = 840


class Workload:
    """One `iadm-cli sweep` campaign, open-loop Bernoulli in simulated time."""

    def __init__(self, name, n, cycles, runs, axes):
        self.name = name
        self.n = n
        self.cycles = cycles
        self.runs = runs
        self.axes = axes

    def flags(self, seed, setup):
        horizon = ["--cycles", "1", "--warmup", "0"] if setup else ["--cycles", str(self.cycles)]
        return ["--n", str(self.n)] + self.axes + horizon + ["--seed", str(seed)]


LOW_LOADS = ",".join(f"{0.002 * i:.3f}" for i in range(1, 41))

WORKLOADS = {
    w.name: w
    for w in [
        # Per-packet path under link churn: LUT decide, TSDT tag cache and
        # REROUTE, queue push/pop, fault apply.
        Workload("sf_churn", 1024, 4000, 1, [
            "--loads", "0.5", "--queues", "4", "--policies", "tsdt",
            "--patterns", "uniform", "--faults", "mtbf:20000:500",
        ]),
        # Lane reservation and flit advance instead of queues, with the
        # SSDT balance decide on top; load below the lane ceiling.
        Workload("wormhole_lanes", 1024, 20000, 1, [
            "--loads", "0.12", "--queues", "4", "--policies", "ssdt",
            "--patterns", "uniform", "--modes", "wormhole:4:4",
        ]),
        # 0.8 packets per cycle over 65536 ports: the per-port arrival
        # scan and N-scale state dominate, decide and queues idle.
        Workload("sparse_large", 65536, 10000, 1, [
            "--loads", repr(0.8 / 65536), "--queues", "4", "--policies", "fixed",
            "--patterns", "uniform",
        ]),
        # 1200 short runs: per-run build, finish and artifact encode.
        Workload("campaign_setup", 1024, 50, 1200, [
            "--loads", LOW_LOADS, "--queues", "2,4",
            "--policies", "fixed,ssdt,tsdt,dchoice:2,random",
            "--patterns", "uniform,bitrev,hotspot:0", "--faults", "rand:16",
        ]),
    ]
}

END_TO_END = [
    ("packets_per_s", "1/s"),
    ("cycles_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("rss_bytes_per_port", "B"),
]

PER_LAYER = [
    ("sweep.expand_ms", "ms"),
    ("sweep.bases_ms", "ms"),
    ("fault.realize_ms", "ms"),
    ("core.lut_build_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sweep.run_ms.p50", "ms"),
    ("sweep.run_ms.p99", "ms"),
    ("sim.finish_ms", "ms"),
    ("sweep.emit_ms", "ms"),
    ("fault.timeline_ms", "ms"),
    ("core.lut_refresh_ns", "ns"),
    ("core.reroute_ns", "ns"),
    ("core.tsdt_trace_ns", "ns"),
    ("core.lut_entry_ns", "ns"),
    ("core.ssdt_route_ns", "ns"),
    ("queue.push_pop_ns", "ns"),
    ("workload.destination_ns", "ns"),
    ("histogram.record_ns", "ns"),
    ("lanes.reserve_release_ns", "ns"),
    ("rng.gen_bool_ns", "ns"),
    ("workload.arrival_scan_us", "us"),
    ("sim.step_ns.p50", "ns"),
    ("sim.step_ns.p99", "ns"),
    ("sim.step_ns.p999", "ns"),
    ("sim.step_ns_per_packet", "ns"),
    ("model.reroutes_per_packet", "ratio"),
    ("model.refused_ratio", "ratio"),
    ("model.fault_events", "count"),
    ("model.mean_occupancy", "packets"),
    ("model.flits_in_flight", "count"),
    ("trace.overhead_pct", "%"),
]

# Self-time sums (milliseconds) derived from the spans of one name.
SELF_MS = {
    "sweep.expand_ms": "sweep.expand",
    "sweep.bases_ms": "sweep.bases",
    "fault.realize_ms": "fault.realize",
    "core.lut_build_ms": "core.lut_build",
    "sim.build_ms": "sim.build",
    "sim.finish_ms": "sim.finish",
    "sweep.emit_ms": "sweep.emit",
    "fault.timeline_ms": "fault.timeline",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- checks


def stats_digest(runs):
    """SHA-256 over the canonical encoding of every run's `stats` object."""
    h = hashlib.sha256()
    for run in runs:
        h.update(json.dumps(run["stats"], sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_errors(stats, cycles):
    """Ledger invariants of one run's statistics; empty when they hold."""
    errors = []
    total = stats["delivered"] + stats["dropped"] + stats["refused"] + stats["in_flight"]
    if stats["injected"] != total:
        errors.append(f"packets not conserved: injected {stats['injected']} != {total}")
    if stats["misrouted"] != 0:
        errors.append(f"misrouted {stats['misrouted']}")
    if stats.get("flits_per_packet", 0):
        flits = (stats["flits_delivered"] + stats["flits_dropped"]
                 + stats["flits_refused"] + stats["flits_in_flight"])
        if stats["flits_injected"] != flits:
            errors.append(f"flits not conserved: injected {stats['flits_injected']} != {flits}")
    if stats["cycles"] != cycles:
        errors.append(f"ran {stats['cycles']} cycles, expected {cycles}")
    return errors


def check_artifact(text, runs_expected, cycles, digest_expected):
    """Checks one artifact.

    Returns `(failed_runs, digest, runs, errors)`: `failed_runs` counts the
    runs that broke an invariant, or every run when the artifact does not
    parse, has the wrong run count, or its digest differs from
    `digest_expected` (when given).
    """
    try:
        doc = json.loads(text)
        runs = doc["runs"]
        if doc["run_count"] != runs_expected or len(runs) != runs_expected:
            return runs_expected, None, None, [f"expected {runs_expected} runs"]
        bad = [(r["index"], run_errors(r["stats"], cycles)) for r in runs]
    except (ValueError, KeyError, TypeError) as e:
        return runs_expected, None, None, [f"unreadable artifact: {e!r}"]
    errors = [f"run {i}: {e}" for i, errs in bad for e in errs]
    failed = sum(1 for _, errs in bad if errs)
    digest = stats_digest(runs)
    if digest_expected is not None and digest != digest_expected:
        errors.append(f"stats digest {digest[:16]} != recorded {digest_expected[:16]}")
        failed = runs_expected
    return failed, digest, runs, errors


class Ledger:
    """Correctness bookkeeping across every artifact of one invocation."""

    def __init__(self, workload, seed):
        self.workload = workload
        recorded = load_digests().get(workload.name, {}).get(str(seed), {})
        # horizon -> digest every artifact of that horizon must match.
        self.expected = dict(recorded)
        self.attempted = 0
        self.failed = 0

    def check(self, horizon, exit_code, path):
        w = self.workload
        cycles = 1 if horizon == "setup" else w.cycles
        self.attempted += w.runs
        if exit_code != 0:
            self.failed += w.runs
            print(f"perfbench: {w.name} {horizon} exited {exit_code}", file=sys.stderr)
            return None
        with open(path) as f:
            text = f.read()
        failed, digest, runs, errors = check_artifact(
            text, w.runs, cycles, self.expected.get(horizon))
        if digest is not None:
            self.expected.setdefault(horizon, digest)
        self.failed += failed
        for e in errors[:10]:
            print(f"perfbench: {w.name} {horizon}: {e}", file=sys.stderr)
        return runs


def load_digests():
    with open(DIGESTS_PATH) as f:
        return json.load(f)


# ------------------------------------------------------------- processes


# The child `spawn` is waiting for, so a terminated harness can take it down.
CHILD = None


def stop(signum, _frame):
    if CHILD is not None:
        try:
            os.kill(CHILD, signal.SIGKILL)
            os.waitpid(CHILD, 0)
        except ChildProcessError:
            pass
    sys.exit(128 + signum)


def spawn(argv, stdout_path, stderr_path):
    """Runs `argv` to completion; returns (exit code, wall seconds, peak RSS bytes).

    Peak RSS comes from the child's own `wait4` resource usage.
    """
    global CHILD
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
    ]
    started = time.perf_counter()
    pid = CHILD = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    CHILD = None
    timer.cancel()
    timer.join()
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss * 1024


def cargo_build(target_dir, args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                          env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def build(trace):
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "cli"))):
        fail("run from the root of an iadm checkout (no Cargo.toml or crates/cli here)")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo_build(target_dir, ["-p", "iadm-cli"])
    binaries = {"cli": os.path.join(target_dir, "release", "iadm-cli")}
    if trace:
        cargo_build(target_dir, ["--manifest-path", os.path.join(HERE, "trace", "Cargo.toml")])
        binaries["trace"] = os.path.join(target_dir, "release", "perfbench-trace")
    return binaries


# ------------------------------------------------------------- measuring


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class Runner:
    def __init__(self, binaries, workload, seed):
        self.binaries = binaries
        self.workload = workload
        self.seed = seed
        self.ledger = Ledger(workload, seed)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.stderr_path = os.path.join(OUT_DIR, f"{workload.name}.stderr")
        open(self.stderr_path, "w").close()

    def artifact(self, horizon):
        return os.path.join(OUT_DIR, f"{self.workload.name}.{horizon}.json")

    def sweep(self, horizon):
        """One untraced CLI campaign; returns (wall s, peak RSS, runs or None)."""
        path = self.artifact(horizon)
        argv = [self.binaries["cli"], "sweep"] + self.workload.flags(self.seed, horizon == "setup") + [
            "--threads", "1", "--out", path]
        code, wall, rss = spawn(argv, os.devnull, self.stderr_path)
        return wall, rss, self.ledger.check(horizon, code, path)


def totals(runs):
    return (sum(r["stats"]["delivered"] for r in runs),
            sum(r["stats"]["cycles"] for r in runs))


def measure_end_to_end(runner, seconds):
    w = runner.workload
    runner.sweep("setup")  # untimed: loads the binary into the page cache
    started = time.monotonic()
    deadline = started + seconds
    packets, cycles, rates, rss, setup = [], [], [], [], []
    reps = 0
    while ((reps < MIN_REPS or time.monotonic() < deadline)
           and time.monotonic() < started + RUN_LIMIT_S):
        reps += 1
        wall, peak, runs = runner.sweep("full")
        if runs is not None:
            delivered, simulated = totals(runs)
            packets.append(delivered / wall)
            cycles.append(simulated / wall)
            rates.append(len(runs) / wall)
            rss.append(peak / w.n)
        spent = 0.0
        for _ in range(SETUP_REPS_MAX):
            wall, _, runs = runner.sweep("setup")
            if runs is not None:
                setup.append(wall)
            spent += wall
            if spent >= SETUP_BUDGET_S:
                break
    values = {
        "packets_per_s": packets,
        "cycles_per_s": cycles,
        "runs_per_s": rates,
        "setup_s": setup,
        "rss_bytes_per_port": rss,
    }
    for name, samples in values.items():
        print(f"perfbench: {name} samples: {' '.join(f'{v:.6g}' for v in samples)}",
              file=sys.stderr)
    return {name: {"value": statistics.median(values[name]) if values[name] else 0.0,
                   "unit": unit}
            for name, unit in END_TO_END}


def span_metrics(spans, delivered):
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    self_ns, total_ns = {}, {}
    for s, covered in zip(spans, child):
        d = s["end"] - s["start"]
        self_ns[s["name"]] = self_ns.get(s["name"], 0) + d - covered
        total_ns.setdefault(s["name"], []).append(d)
    out = {metric: self_ns.get(name, 0) / 1e6 for metric, name in SELF_MS.items()}
    runs = sorted(total_ns["sweep.run"])
    steps = sorted(total_ns["sim.step"])
    out["sweep.run_ms.p50"] = percentile(runs, 0.50) / 1e6
    out["sweep.run_ms.p99"] = percentile(runs, 0.99) / 1e6
    out["sim.step_ns.p50"] = percentile(steps, 0.50)
    out["sim.step_ns.p99"] = percentile(steps, 0.99)
    out["sim.step_ns.p999"] = percentile(steps, 0.999)
    out["sim.step_ns_per_packet"] = sum(steps) / max(delivered, 1)
    return out


def model_metrics(runs):
    s = [r["stats"] for r in runs]
    injected = max(sum(x["injected"] for x in s), 1)
    return {
        "model.reroutes_per_packet": sum(x.get("reroutes", 0) for x in s) / injected,
        "model.refused_ratio": sum(x["refused"] + x["dropped"] for x in s) / injected,
        "model.fault_events": sum(x.get("fault_events", 0) for x in s),
        "model.mean_occupancy": sum(x["queue_mean_occupancy"] for x in s) / len(s),
        "model.flits_in_flight": sum(x.get("flits_in_flight", 0) for x in s),
    }


def measure_traced(runner):
    w = runner.workload
    trace = runner.binaries["trace"]
    wall_untraced, _, runs = runner.sweep("full")
    spans_path = os.path.join(OUT_DIR, f"{w.name}.spans.json")
    traced_path = runner.artifact("traced")
    argv = [trace, "run"] + w.flags(runner.seed, False) + ["--out", traced_path,
                                                           "--spans", spans_path]
    code, wall_traced, _ = spawn(argv, os.devnull, runner.stderr_path)
    # The traced replay must reproduce the untraced run's statistics.
    traced_runs = runner.ledger.check("full", code, traced_path)
    probe_path = os.path.join(OUT_DIR, f"{w.name}.probes.json")
    code, _, _ = spawn([trace, "probe"] + w.flags(runner.seed, False), probe_path,
                       runner.stderr_path)
    if code != 0 or runs is None or traced_runs is None:
        fail(f"traced run of {w.name} failed (see {runner.stderr_path})")
    with open(spans_path) as f:
        spans = json.load(f)["spans"]
    with open(probe_path) as f:
        values = json.load(f)
    delivered, _ = totals(runs)
    values.update(span_metrics(spans, delivered))
    values.update(model_metrics(runs))
    untraced = delivered / wall_untraced
    traced = delivered / wall_traced
    values["trace.overhead_pct"] = (untraced - traced) / untraced * 100.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def record(runner):
    digests = {}
    for horizon in ("full", "setup"):
        _, _, runs = runner.sweep(horizon)
        if runs is None or runner.ledger.failed:
            fail(f"{runner.workload.name} {horizon} failed its checks; nothing recorded")
        digests[horizon] = stats_digest(runs)
    print(json.dumps({"workload": runner.workload.name, "seed": runner.seed,
                      "digests": digests}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, stop)
    if args.seed < 0:
        fail("--seed must be non-negative")
    binaries = build(args.trace == 1)
    runner = Runner(binaries, WORKLOADS[args.workload], args.seed)
    if args.record:
        record(runner)
        return
    if args.trace:
        metrics = measure_traced(runner)
    else:
        metrics = measure_end_to_end(runner, args.seconds)
    ledger = runner.ledger
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
