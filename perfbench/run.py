#!/usr/bin/env python3
"""One benchmark for PANE training and serving.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run builds the harness and
pane_server from source into .bench_build/ (see CMakeLists.txt here).

Workloads (inputs are generated from --seed; the program under test only
sees the generated graph, artifact and requests):

  train_inram    Pane::Train on an SBM graph (n=10k, d=1k, |E|=|E_R|=10n,
                 k=64, 4 threads), no memory budget.
  train_spill    the same graph and options at memory_budget_mb=64, so the
                 four n x d factors (320 MB) spill through the buffer pool.
                 Not in BENCHMARK.json: its wall time follows host disk
                 contention (see README.md).
  serve_exact    pane_server, unsharded exact scan, cache off, frame codec,
                 over loopback TCP; attr/link top-10 3:1, uniform nodes.
  serve_sharded  pane_server --local-shards=2 --pruned, default cache, line
                 codec; attr/link/pattr/pair with Zipf node popularity. Not
                 in BENCHMARK.json: its tail latency is unsteady (see
                 README.md).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(spans recorded by perfbench_trace around each layer's public calls). The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Full reports and span files go to .bench_build/reports/.
"""

import argparse
import hashlib
import json
import os
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
REPORTS = os.path.join(BUILD, "reports")
E2E = os.path.join(BUILD, "perfbench_e2e")
TRACE = os.path.join(BUILD, "perfbench_trace")
SERVER = os.path.join(BUILD, "pane", "pane_server")
THREADS = 4  # nproc of the reference machine
RUN_BUDGET_S = 170  # every child process of a run is bounded by this budget
_deadline = [time.monotonic() + RUN_BUDGET_S]


def remaining(cap):
    """Seconds a child may still take: `cap`, cut to the run's budget."""
    return max(1.0, min(cap, _deadline[0] - time.monotonic()))

# Full-size inputs. The self-test shrinks them.
SIZES = {
    "train": {"n": 10000, "d": 1000, "k": 64},
    "serve": {"n": 100000, "d": 20000, "h": 64, "clusters": 64},
}
TINY = {
    "train": {"n": 2000, "d": 200, "k": 16},
    "serve": {"n": 5000, "d": 1000, "h": 16, "clusters": 16},
}

# A serving configuration: run_serve starts pane_server with it and the
# traced run (perfbench_trace serve) rebuilds it in process from the same
# values, so the replay cannot drift from what is served.
EXACT = {"name": "exact", "mix": "exact", "protocol": "frame", "cache": 0,
         "local_shards": 0, "pruned": False, "nprobe": 8}
SHARDED = {"name": "sharded", "mix": "sharded", "protocol": "line",
           "cache": 1024, "local_shards": 2, "pruned": True, "nprobe": 8}


def config_flags(config):
    flags = ["--protocol=" + config["protocol"],
             "--cache-size=%d" % config["cache"],
             "--local-shards=%d" % config["local_shards"],
             "--nprobe=%d" % config["nprobe"]]
    return flags + (["--pruned"] if config["pruned"] else [])


# serve_exact's traced run also replays the sharded configuration and keeps
# its router, shard-split and IVF numbers, so those layers are measured on
# a workload that BENCHMARK.json lists (serve_sharded is not listed; see
# README.md).
SHARDED_LAYERS = ("router.overhead_us_per_batch", "router.hop_p99_us",
                  "ivf.scanned_per_q", "ivf.pruned_frac", "ivf.recall_at_10",
                  "ivf.build_s", "shard.split_s")

# Trainings per train_* run: one per TRAIN_SLOT_S of --seconds, at least
# two (the repeat check). The count depends on --seconds only, never on how
# fast the host is, so every run of a workload estimates the same thing.
TRAIN_SLOT_S = 10

# train_spill's memory budget (the self-test's tiny graph spills at 4 MB).
SPILL_BUDGET_MB = 64
TINY_SPILL_BUDGET_MB = 4

# train_inram's traced run also traces a spill training and keeps its
# buffer-pool and slab numbers, so those layers are measured on a workload
# that BENCHMARK.json lists (train_spill is not listed; see README.md).
SPILL_LAYERS = ("pool.evictions", "pool.writeback_mb", "pool.resident_peak_mb",
                "slab.spilled_mb", "spill.train_s", "spill.peak_rss_mb")

WORKLOADS = {
    # traces: (spill, metrics kept; None = all), one traced process each
    "train_inram": {"kind": "train", "spill": False,
                    "traces": [(False, None), (True, SPILL_LAYERS)]},
    "train_spill": {"kind": "train", "spill": True,
                    "traces": [(True, None)]},
    # replays: (configuration, requests per pass, metrics kept; None = all)
    "serve_exact": {"kind": "serve", "config": EXACT,
                    "replays": [(EXACT, 300, None),
                                (SHARDED, 3000, SHARDED_LAYERS)]},
    "serve_sharded": {"kind": "serve", "config": SHARDED,
                      "replays": [(SHARDED, 3000, None)]},
}

# Metric names and units. Every workload prints every name: a layer a
# workload does not run reads 0 there.
END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("qps", "1/s"),
    ("p50_ms", "ms"), ("p90_ms", "ms"),
]
PER_LAYER = [
    ("graph.build_s", "s"),
    ("affinity.busy_s", "s"), ("affinity.cells_per_s", "1/s"),
    ("affinity.roof_frac", "ratio"),
    ("init.busy_s", "s"), ("init.gflops", "GFLOP/s"),
    ("init.overlapped_blocks", "count"),
    ("ccd.busy_s", "s"), ("ccd.sweeps", "count"), ("ccd.gb_per_s", "GB/s"),
    ("ccd.objective", "value"),
    ("pool.evictions", "count"), ("pool.writeback_mb", "MB"),
    ("pool.resident_peak_mb", "MB"), ("slab.spilled_mb", "MB"),
    ("spill.train_s", "s"), ("spill.peak_rss_mb", "MB"),
    ("store.open_s", "s"), ("engine.create_s", "s"), ("ivf.build_s", "s"),
    ("shard.split_s", "s"),
    ("engine.scan_us_per_q", "us"), ("engine.select_us_per_q", "us"),
    ("engine.gmuladd_per_s", "G/s"), ("engine.roof_frac", "ratio"),
    ("ivf.scanned_per_q", "count"), ("ivf.pruned_frac", "ratio"),
    ("ivf.recall_at_10", "ratio"),
    ("router.overhead_us_per_batch", "us"), ("router.hop_p99_us", "us"),
    ("router.errors", "count"),
    ("codec.decode_ns_per_req", "ns"), ("codec.encode_ns_per_resp", "ns"),
    ("server.batch_size_mean", "count"), ("server.cache_hit_ratio", "ratio"),
    ("server.execute_us_per_batch", "us"),
    ("transport.rtt_floor_us", "us"), ("transport.bytes_per_req", "B"),
    ("p99_ms", "ms"), ("loadgen.lateness_p99_ms", "ms"),
    ("machine.stream_gb_per_s", "GB/s"), ("machine.muladd_gflops", "GFLOP/s"),
    ("trace.span_coverage", "ratio"), ("trace.overhead_frac", "ratio"),
]

# The open-loop generator has fallen behind its schedule (and the run is
# invalid) when its median lateness exceeds 1 ms or its p99 exceeds 25 ms.
# Latency is timed from the due time, so a late arrival's delay is still
# counted; the limits only guard the shape of the offered load.
LATENESS_P50_LIMIT_MS = 1.0
LATENESS_P99_LIMIT_MS = 25.0


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, build failure)."""


def quantile(values, q):
    """Linear-interpolated quantile, as Quantile in common.cc."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def report(msg):
    print(msg, flush=True)


# ---- build -------------------------------------------------------------------


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("the program's sources (CMakeLists.txt, src/) are "
                         "not next to " + HERE)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=600).returncode != 0:
            if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
                os.remove(os.path.join(BUILD, "CMakeCache.txt"))
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(THREADS), "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=880).returncode != 0:
        raise BenchError("build failed: " + " ".join(targets))


def source_digest():
    """Commit id when run inside git, else a digest of the program sources."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "examples", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha1:" + h.hexdigest()


# ---- processes ---------------------------------------------------------------


def wait_rusage(proc, timeout):
    """Waits for `proc` and returns (exit code, peak RSS in MB) of that one
    process (wait4), never a high-water mark shared with other children."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = -9
            return None, usage.ru_maxrss / 1024.0
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_tool(argv, name, timeout=170):
    """Runs one harness process; returns (parsed JSON or None, peak RSS MB)."""
    timeout = remaining(timeout)
    out_path = os.path.join(WORK, name + ".out")
    err_path = os.path.join(WORK, name + ".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
    try:
        code, rss = wait_rusage(proc, timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    with open(out_path) as fh:
        lines = [l for l in fh.read().splitlines() if l.startswith("{")]
    if code != 0 or not lines:
        with open(err_path) as fh:
            tail = fh.read()[-2000:]
        log("%s exited with %s:\n%s" % (name, code, tail))
    try:
        return (json.loads(lines[-1]) if lines else None), rss
    except ValueError:
        return None, rss


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def probe_bytes(protocol):
    payload = b"pair 0 1"
    if protocol == "frame":
        return b"\xabPF\x01" + struct.pack("<I", len(payload)) + payload
    return payload + b"\n"


class Server:
    """A pane_server child on a loopback port; setup time is from spawn to
    the first answered request."""

    def __init__(self, artifact, config, tag):
        self.port = free_port()
        self.err_path = os.path.join(WORK, tag + ".server.err")
        argv = [SERVER, "--embedding=" + artifact, "--port=%d" % self.port,
                "--threads=%d" % THREADS] + config_flags(config)
        self.start = time.monotonic()
        with open(self.err_path, "w") as err:
            self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                         stderr=err, cwd=ROOT)
        self.rss_mb = None
        try:
            self.setup_s = self._wait_ready(config["protocol"])
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _wait_ready(self, protocol, timeout=150):
        deadline = self.start + remaining(timeout)
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("pane_server exited during set-up")
            try:
                with socket.create_connection(("127.0.0.1", self.port),
                                              timeout=5) as s:
                    s.sendall(probe_bytes(protocol))
                    if s.recv(4096):
                        return time.monotonic() - self.start
            except OSError:
                time.sleep(0.002)
        raise RuntimeError("pane_server not ready in %ds" % timeout)

    def stop(self):
        if self.proc.returncode is None:
            try:
                self.proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            _, self.rss_mb = wait_rusage(self.proc, 30)
        return self.rss_mb


# ---- workloads -------------------------------------------------------------


def train_argv(tool, sizes, seed, budget_mb):
    return [tool, "train", "--n=%d" % sizes["n"], "--d=%d" % sizes["d"],
            "--k=%d" % sizes["k"], "--threads=%d" % THREADS,
            "--seed=%d" % seed, "--budget-mb=%d" % budget_mb,
            "--spill-dir=" + WORK]


def spill_budget(spill, tiny):
    if not spill:
        return 0
    return TINY_SPILL_BUDGET_MB if tiny else SPILL_BUDGET_MB


def run_train(name, spec, args, tiny, res):
    sizes = (TINY if tiny else SIZES)["train"]
    budget = spill_budget(spec["spill"], tiny)
    checks = res["checks"]
    reference_hash = None
    if budget > 0:
        # The spill path must reproduce the in-RAM embedding bit for bit.
        ref, _ = run_tool(train_argv(E2E, sizes, args.seed, 0), name + ".inram")
        res["attempted"] += 1
        if ref is None:
            res["failed"] += 1
        else:
            reference_hash = ref["hash"]
        checks["spill_equals_inram_reference_ran"] = ref is not None

    if args.trace:
        hashes = {}
        for spill, keep in spec["traces"]:
            tag = "spill" if spill else "inram"
            traced_budget = spill_budget(spill, tiny)
            out, _ = run_tool(
                train_argv(TRACE, sizes, args.seed, traced_budget) +
                ["--spans-out=" + res["spans_path"].replace(
                    ".spans", "." + tag + ".spans")],
                "%s.trace.%s" % (name, tag))
            res["attempted"] += 1
            checks["trace_%s_ran" % tag] = out is not None
            if out is None:
                res["failed"] += 1
                return
            hashes[tag] = out["train_hash"]
            res["detail"]["trace_" + tag] = out
            checks["replay_bitwise_equals_train_" + tag] = \
                bool(out["replay_equal"])
            checks["objective_not_above_init_" + tag] = \
                out["objective_final"] <= out["objective_initial"]
            metrics = dict(out["metrics"])
            if spill:
                metrics["spill.train_s"] = out["train_s"]
                metrics["spill.peak_rss_mb"] = out["train_peak_rss_mb"]
            if keep is None:
                res["layer"].update(metrics)
                res["machine"] = out["machine"]
            else:
                res["layer"].update((k, v) for k, v in metrics.items()
                                    if k in keep)
            report("trace (%s): replay %.3fs vs untraced Train %.3fs "
                   "(tracing overhead incl. the replay's lost init overlap: "
                   "%+.1f%%); affinity+init+ccd spans cover %.1f%% of the "
                   "replay" % (tag, out["replay_s"], out["train_s"],
                               100 * out["metrics"]["trace.overhead_frac"],
                               100 * out["metrics"]["trace.span_coverage"]))
        if reference_hash is not None:
            hashes["reference"] = reference_hash
        if "spill" in hashes and len(hashes) > 1:
            checks["spill_bitwise_equals_inram"] = \
                len(set(hashes.values())) == 1
        return

    runs = []
    for i in range(max(2, int(round(args.seconds / TRAIN_SLOT_S)))):
        out, rss = run_tool(train_argv(E2E, sizes, args.seed, budget),
                            "%s.%d" % (name, i))
        res["attempted"] += 1
        if out is None:
            res["failed"] += 1
            checks["trainer_ran"] = False
            return
        out["peak_rss_mb"] = rss
        runs.append(out)
    res["detail"]["runs"] = runs
    hashes = {r["hash"] for r in runs}
    checks["bitwise_identical_repeats"] = len(hashes) == 1
    if reference_hash is not None:
        checks["spill_bitwise_equals_inram"] = hashes == {reference_hash}
    checks["objective_not_above_init"] = all(
        r["objective_final"] <= r["objective_initial"] for r in runs)
    train_s = [r["train_s"] for r in runs]
    e2e = res["e2e"]
    e2e["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    e2e["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    e2e["qps"] = len(runs) / sum(train_s)
    e2e["p50_ms"] = 1e3 * statistics.median(train_s)
    e2e["p90_ms"] = 1e3 * quantile(train_s, 0.9)
    report("train: %d runs, train_s %s, objective %.6g -> %.6g, "
           "spilled=%d, peak_rss_mb %s"
           % (len(runs), ["%.3f" % t for t in train_s],
              runs[0]["objective_initial"], runs[0]["objective_final"],
              runs[0]["spilled"], ["%.1f" % r["peak_rss_mb"] for r in runs]))
    report("train: train_s = %.4f s (median of %d), train_objective = %.9g"
           % (statistics.median(train_s), len(runs), runs[0]["objective_final"]))


def parse_stats(text):
    fields = {}
    for token in text.split():
        if "=" in token:
            key, value = token.split("=", 1)
            try:
                fields[key] = float(value)
            except ValueError:
                pass
    return fields


def run_serve(name, spec, args, tiny, res):
    sizes = (TINY if tiny else SIZES)["serve"]
    config = spec["config"]
    checks = res["checks"]
    artifact = os.path.join(WORK, "%s-%d.ctn" % (name, args.seed))
    out, _ = run_tool([E2E, "gen-artifact", "--n=%d" % sizes["n"],
                       "--d=%d" % sizes["d"], "--h=%d" % sizes["h"],
                       "--clusters=%d" % sizes["clusters"],
                       "--seed=%d" % args.seed, "--out=" + artifact],
                      name + ".artifact")
    if out is None:
        raise RuntimeError("artifact generation failed")
    try:
        # Set up several times; the last server takes the load.
        setups = []
        server = None
        try:
            for i in range(3):
                if server is not None:
                    server.stop()
                    server = None
                server = Server(artifact, config, "%s.%d" % (name, i))
                setups.append(server.setup_s)
            closed_s = args.seconds / 3.0
            load, _ = run_tool(
                [E2E, "loadgen", "--port=%d" % server.port,
                 "--protocol=" + config["protocol"],
                 "--mix=" + config["mix"], "--n=%d" % sizes["n"],
                 "--d=%d" % sizes["d"], "--seed=%d" % args.seed,
                 "--closed-seconds=%.3f" % closed_s,
                 "--open-seconds=%.3f" % (args.seconds - closed_s),
                 "--check-out=" + os.path.join(WORK, name + ".check"),
                 "--rtt-probes=%d" % (200 if args.trace else 0)],
                name + ".loadgen")
        finally:
            rss = server.stop() if server is not None else None
        if load is None:
            raise RuntimeError("load generator failed")
        ref, _ = run_tool([E2E, "reference", "--artifact=" + artifact,
                           "--check=" + os.path.join(WORK, name + ".check"),
                           "--mode=" + config["mix"], "--threads=%d" % THREADS],
                          name + ".reference")
        replays = []
        if args.trace:
            for replay, requests, keep in spec["replays"]:
                mode = replay["name"]
                out, _ = run_tool(
                    [TRACE, "serve", "--artifact=" + artifact,
                     "--mix=" + replay["mix"], "--threads=%d" % THREADS,
                     "--seed=%d" % args.seed,
                     "--requests=%d" % (requests // 10 if tiny else requests),
                     "--spans-out=" + res["spans_path"].replace(
                         ".spans", "." + mode + ".spans")] +
                    config_flags(replay),
                    "%s.trace.%s" % (name, mode))
                replays.append((mode, keep, out))
    finally:
        if os.path.exists(artifact):
            os.remove(artifact)

    closed, opened = load["closed"], load["open"]
    res["attempted"] += closed["sent"] + opened["sent"]
    res["failed"] += closed["failed"] + opened["failed"]
    res["detail"].update({"setups_s": setups, "load": load,
                          "reference": ref})
    rate = load["open_rate"]
    behind = (opened["lateness_p50_ms"] > LATENESS_P50_LIMIT_MS or
              opened["lateness_p99_ms"] > LATENESS_P99_LIMIT_MS)
    checks["generator_on_schedule"] = not behind
    checks["no_timeouts"] = not load["timed_out"]
    checks["reference_ran"] = ref is not None and ref["checked"] > 0
    if ref is not None:
        checks["no_err_responses"] = ref["errors"] == 0 and ref["malformed"] == 0
        if config["mix"] == "exact":
            checks["byte_identical_to_query_engine"] = ref["mismatches"] == 0
        else:
            checks["pair_scores_identical_and_rankings_parse"] = \
                ref["mismatches"] == 0
    stats = parse_stats(load["stats"])
    requests = max(stats.get("requests", 0.0), 1.0)
    cache_hit_ratio = stats.get("cache_hits", 0.0) / requests
    e2e = res["e2e"]
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = rss
    e2e["qps"] = closed["qps_windowed"]
    e2e["p50_ms"] = opened["p50_ms_windowed"]
    e2e["p90_ms"] = opened["p90_ms_windowed"]
    for phase_name, phase in (("closed", closed), ("open", opened)):
        report("%s loop: sent=%d succeeded=%d failed=%d in %.1fs%s"
               % (phase_name, phase["sent"], phase["succeeded"],
                  phase["failed"], phase["seconds"],
                  " (%d conns, one outstanding each)" % load["connections"]
                  if phase_name == "closed" else
                  " (Poisson, %g/s = %g x closed-loop qps, at most one "
                  "outstanding on each of %d conns)"
                  % (rate, load["open_load"], load["connections"])))
    report("qps = %.1f 1/s (median of 8 closed-loop windows; %d completions, "
           "%.1f 1/s overall); p50_ms = %.3f, p90_ms = %.3f, p99_ms = %.3f "
           "(median over groups of >= 1000 open-loop samples; %d samples, "
           "overall %.3f / %.3f / %.3f); fail_rate = %.6f"
           % (closed["qps_windowed"], closed["completed_in_window"],
              closed["qps"], opened["p50_ms_windowed"],
              opened["p90_ms_windowed"], opened["p99_ms_windowed"],
              opened["latency_samples"], opened["p50_ms"], opened["p90_ms"],
              opened["p99_ms"],
              res["failed"] / max(res["attempted"], 1)))
    report("generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms%s"
           % (opened["lateness_p50_ms"], opened["lateness_p99_ms"],
              opened["lateness_max_ms"], " -- BEHIND SCHEDULE, run invalid"
              if behind else ""))
    report("server: requests=%d batches=%d cache_hits=%d "
           "server.cache_hit_ratio=%.4f"
           % (stats.get("requests", 0), stats.get("batches", 0),
              stats.get("cache_hits", 0), cache_hit_ratio))
    if ref is not None:
        report("check: %d answers re-derived through QueryEngine, %d mismatches, "
               "%d err; recall_at_10 = %.4f over %d pruned top-k answers"
               % (ref["checked"], ref["mismatches"], ref["errors"],
                  ref["recall_at_10"], ref["topk_checked"]))

    if not args.trace:
        return
    layer = res["layer"]
    total_bytes = sum(p["bytes_out"] + p["bytes_in"] for p in (closed, opened))
    total_sent = max(closed["sent"] + opened["sent"], 1)
    layer["server.batch_size_mean"] = \
        stats.get("requests", 0.0) / max(stats.get("batches", 0.0), 1.0)
    layer["server.cache_hit_ratio"] = cache_hit_ratio
    layer["router.errors"] = sum(v for k, v in stats.items()
                                 if k.startswith("shard") and
                                 k.endswith(".errors"))
    layer["transport.rtt_floor_us"] = load["rtt_p50_us"]
    layer["transport.bytes_per_req"] = total_bytes / total_sent
    layer["loadgen.lateness_p99_ms"] = opened["lateness_p99_ms"]
    layer["p99_ms"] = opened["p99_ms_windowed"]
    for mode, keep, out in replays:
        checks["trace_%s_ran" % mode] = out is not None
        if out is None:
            continue
        res["detail"]["trace_" + mode] = out
        checks["replay_%s_without_errors" % mode] = out["errors"] == 0
        if mode == "exact":
            checks["replay_byte_identical"] = out["exact_mismatches"] == 0
        if keep is None:
            layer.update(out["metrics"])
            res["machine"] = out["machine"]
        else:
            layer.update((k, v) for k, v in out["metrics"].items() if k in keep)
        report("trace (%s replay): %d requests in process, traced %.4fs vs "
               "untraced %.4fs (tracing overhead %+.1f%%); self time per "
               "request (us): %s"
               % (mode, out["replayed"], out["traced_s"], out["untraced_s"],
                  100 * out["metrics"]["trace.overhead_frac"],
                  ", ".join("%s %.1f" % (k.replace(".self_us_per_req", ""), v)
                            for k, v in out["self_time"].items())))
    if config["mix"] == "sharded" and ref is not None:
        layer["ivf.recall_at_10"] = ref["recall_at_10"]


def run_workload(name, seed, seconds, trace, tiny=False):
    """Runs one workload; returns the result line's dict and the report."""
    spec = WORKLOADS[name]
    _deadline[0] = time.monotonic() + RUN_BUDGET_S
    args = argparse.Namespace(seed=seed, seconds=seconds, trace=trace)
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(REPORTS, exist_ok=True)
    tag = "%s-seed%d-trace%d%s" % (name, seed, trace, "-tiny" if tiny else "")
    res = {"attempted": 0, "failed": 0, "checks": {}, "e2e": {}, "layer": {},
           "detail": {}, "machine": None,
           "spans_path": os.path.join(REPORTS, tag + ".spans.jsonl")}
    error = None
    # Untraced runs keep every CPU busy at SCHED_IDLE (see IdleSpin in
    # e2e.cc), so the end-to-end figures exclude the hypervisor's delay in
    # waking a halted vCPU. Traced runs do not spin: their per-layer figures
    # (router hops, thread-pool fan-out, the roofline probes) keep that
    # wake-up cost.
    spinner = None
    if not trace:
        spinner = subprocess.Popen([E2E, "idle-spin"],
                                   stdout=subprocess.DEVNULL, cwd=ROOT)
    try:
        if spec["kind"] == "train":
            run_train(name, spec, args, tiny, res)
        else:
            run_serve(name, spec, args, tiny, res)
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        error = str(exc)
        log("run failed: " + error)
        res["attempted"] = max(res["attempted"], 1)
        res["failed"] = max(res["failed"], 1)
    finally:
        if spinner is not None:
            spinner.kill()
            spinner.wait()
    if res["machine"] is None:
        out, _ = run_tool([E2E, "machine"], name + ".machine")
        res["machine"] = out
    correct = error is None and bool(res["checks"]) and \
        all(res["checks"].values())
    for check, ok in sorted(res["checks"].items()):
        report("gate %-45s %s" % (check, "pass" if ok else "FAIL"))

    metrics = {}
    if trace:
        for metric, unit in PER_LAYER:
            metrics[metric] = {"value": float(res["layer"].get(metric, 0.0)),
                               "unit": unit}
    else:
        for metric, unit in END_TO_END:
            value = res["e2e"].get(metric)
            if value is None:
                correct = False
                value = 0.0
            metrics[metric] = {"value": float(value), "unit": unit}
    for metric, m in metrics.items():
        report("metric %-32s %.6g %s" % (metric, m["value"], m["unit"]))
    result = {"correct": correct, "attempted": int(res["attempted"]),
              "failed": int(res["failed"]), "metrics": metrics}
    full = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "tiny": tiny, "source": source_digest(),
            "idle_spin": spinner is not None,
            "machine": res["machine"], "checks": res["checks"],
            "error": error, "result": result, "detail": res["detail"]}
    with open(os.path.join(REPORTS, tag + ".json"), "w") as fh:
        json.dump(full, fh, indent=1)
    return result


# ---- self-test ---------------------------------------------------------------


def self_test():
    """Every workload and its gates at tiny sizes, traced and untraced, plus
    the metric names against BENCHMARK.json when it is present."""
    ok = True
    names = {"end_to_end": {m for m, _ in END_TO_END},
             "per_layer": {m for m, _ in PER_LAYER}}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as fh:
            spec = json.load(fh)
        if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
            log("self-test: BENCHMARK.json names a workload run.py lacks")
            ok = False
        for key in ("end_to_end", "per_layer"):
            if {m["name"] for m in spec[key]} != names[key]:
                log("self-test: BENCHMARK.json %s differs from run.py" % key)
                ok = False
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, 1, 1, trace, tiny=True)
            want = names["per_layer" if trace else "end_to_end"]
            good = result["correct"] and set(result["metrics"]) == want and \
                result["failed"] == 0
            log("self-test %-14s trace=%d %s" % (name, trace,
                                                 "ok" if good else "FAILED"))
            ok = ok and good
    return ok


def main():
    # A terminated run still stops its server and spinner (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        build(["perfbench_e2e", "pane_server"] +
              (["perfbench_trace"] if args.trace or args.self_test else []))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        log("benchmark cannot run: %s" % exc)
        return 2
    if args.self_test:
        ok = self_test()
        report("self-test %s" % ("ok" if ok else "FAILED"))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
