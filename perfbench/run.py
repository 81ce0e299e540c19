#!/usr/bin/env python3
"""The plansep benchmark: end-to-end runs through the programs users run,
and a traced run that times each layer. See perfbench/README.md.

    python3 perfbench/run.py --workload batch_pipeline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload query_serve --seed 1 --smoke

Run it from the root of a checkout: it builds plansep_batch, plansepd,
plansep_ingest and perfbench_tool from the sources there (into
$CARGO_TARGET_DIR, default .bench_build), works in a fresh directory
under .bench_run, and prints human-readable report lines followed by one
JSON result line. Exit status: 0 with a result line; 1 when a run broke
(a program crashed, hung, leaked a child or left a stale socket); 2 when
the sources or the build are missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import median, rate_mb_s, tail_percentile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAMS = ("plansep_batch", "plansepd", "plansep_ingest", "perfbench_tool")
# Set-up is repeated this often per run (setup_s is the median): often
# where it takes milliseconds, less where it boots and drains plansepd.
SETUPS = {"batch_pipeline": 101, "query_serve": 11, "ingest_admit": 41, "all": 1}
# Every end-to-end time is reported host-normalised: multiplied by
# CALIB_REF_MS / (median host probe of the run), i.e. as it would read on
# a host whose probe takes CALIB_REF_MS. The raw times are report lines.
CALIB_REF_MS = 100.0
# The query working set is about 70 MB of index artifacts, the largest
# 34 MB; plansepd splits its cache over 8 shards, each of which must hold
# one artifact whole.
DAEMON_CACHE_BYTES = 1 << 30
CHILD_TIMEOUT_S = 170


class RunError(Exception):
    """A broken run: reported on stderr, with no result line."""


def report(name, value, unit, detail=""):
    print(f"# {name} = {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))


def note(name, text):
    print(f"# {name}: {text}")


# ------------------------------------------------------------------ build --


def build():
    """Configures once, then builds the four programs; returns the binary
    paths. Runs before any timing."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "examples", "plansepd.cpp")
    ):
        print("perfbench: no plansep sources (src/, examples/) next to perfbench/", file=sys.stderr)
        sys.exit(2)
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir])
        steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 2), "--target", *PROGRAMS])
        for cmd in steps:
            # Its own process group, so a stopped run takes the compilers
            # down with cmake.
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
            try:
                code = proc.wait()
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                print("perfbench: build failed", file=sys.stderr)
                sys.exit(2)
    bins = {
        "plansep_batch": os.path.join(bdir, "examples", "plansep_batch"),
        "plansepd": os.path.join(bdir, "examples", "plansepd"),
        "plansep_ingest": os.path.join(bdir, "examples", "plansep_ingest"),
        "perfbench_tool": os.path.join(bdir, "perfbench_tool"),
    }
    for path in bins.values():
        if not os.access(path, os.X_OK):
            print(f"perfbench: build produced no {path}", file=sys.stderr)
            sys.exit(2)
    return bins


# -------------------------------------------------------------- processes --


class Children:
    """Every process the run starts; reaped with wait4 so the peak RSS of
    each program under test is known. kill_all() is the error path."""

    def __init__(self):
        self.live = []

    def start(self, cmd, **kw):
        proc = subprocess.Popen(cmd, **kw)
        self.live.append(proc)
        return proc

    def reap(self, proc, timeout=CHILD_TIMEOUT_S):
        """Waits for proc (killing it after `timeout` s); returns (exit
        code, peak RSS in MB)."""
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            self.live.remove(proc)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if watchdog.finished.is_set() and proc.returncode < 0:
            raise RunError(f"{os.path.basename(proc.args[0])} did not finish in {timeout} s")
        return proc.returncode, usage.ru_maxrss * 1024 / 1e6

    def run(self, cmd, **kw):
        """Runs cmd to completion; returns (exit code, wall s, peak RSS MB)."""
        t0 = time.perf_counter()
        proc = self.start(cmd, **kw)
        code, rss = self.reap(proc)
        return code, time.perf_counter() - t0, rss

    def kill_all(self):
        for proc in list(self.live):
            proc.kill()
            proc.wait()
            self.live.remove(proc)

    def assert_none_left(self):
        if self.live:
            raise RunError(f"{len(self.live)} child process(es) still running")
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children at all
        raise RunError("a child process leaked" if pid == 0 else f"unreaped child {pid}")


def tool(bins, kids, *args):
    code, _, _ = kids.run([bins["perfbench_tool"], *args])
    if code != 0:
        raise RunError(f"perfbench_tool {args[0]} failed with exit code {code}")


class Daemon:
    """A fresh plansepd on a socket in the run directory."""

    def __init__(self, bins, kids, run_dir):
        self.bins = bins
        self.kids = kids
        # Relative to the checkout root (the working directory of the run
        # and of every child), because a socket path must fit in the 108
        # bytes of sockaddr_un and the checkout may live anywhere.
        self.sock = os.path.relpath(os.path.join(run_dir, "plansepd.sock"), ROOT)
        if len(self.sock.encode()) >= 108:
            raise RunError(f"socket path {self.sock} is too long for AF_UNIX")
        if os.path.exists(self.sock):
            raise RunError(f"stale socket {self.sock}")
        self.log = open(os.path.join(run_dir, "plansepd.log"), "w")
        self.proc = kids.start(
            [bins["plansepd"], f"--socket={self.sock}", "--workers=2", f"--cache-bytes={DAEMON_CACHE_BYTES}"],
            stderr=self.log,
        )
        deadline = time.monotonic() + 10
        while True:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.sock)
                break
            except OSError:
                if self.proc.poll() is not None:
                    self.kids.live.remove(self.proc)
                    self.log.close()
                    with open(self.log.name) as f:
                        tail = f.read()[-2000:]
                    raise RunError(f"plansepd exited with code {self.proc.returncode} before listening: {tail}")
                if time.monotonic() > deadline:
                    raise RunError("plansepd did not come up")
                time.sleep(0.002)
            finally:
                probe.close()

    def finish(self, drain=False):
        """Reaps the daemon after a client drained it (with drain=True,
        drains it first); returns its peak RSS in MB. Never SIGTERM:
        plansepd's signal handler takes a mutex the interrupted thread may
        hold, and then the daemon never exits (see README)."""
        if drain:
            tool(self.bins, self.kids, "drain", f"--socket={self.sock}")
        code, rss = self.kids.reap(self.proc, timeout=60)
        self.log.close()
        if code != 0:
            raise RunError(f"plansepd exited with code {code}")
        if os.path.exists(self.sock):
            raise RunError(f"plansepd left a stale socket {self.sock}")
        return rss


# ------------------------------------------------------------------ setup --


def setup(ctx, render_workload, with_daemon, extra=()):
    """Set-up, repeated SETUPS[render_workload] times in fresh directories:
    render the inputs, make the scratch directories and, for the daemon
    workloads, boot plansepd and connect. The last set-up is kept for the
    timed units. Returns (run directory, daemon or None)."""
    times = []
    ctx.setups = SETUPS[render_workload]
    for i in range(ctx.setups):
        t0 = time.perf_counter()
        run_dir = os.path.join(ctx.work, f"setup{i}")
        os.makedirs(run_dir)
        tool(ctx.bins, ctx.kids, "render", f"--workload={render_workload}", f"--seed={ctx.seed}",
             f"--dir={run_dir}", *extra, *ctx.smoke)
        daemon = Daemon(ctx.bins, ctx.kids, run_dir) if with_daemon else None
        times.append(time.perf_counter() - t0)
        if i + 1 < ctx.setups:
            if daemon:
                daemon.finish(drain=True)
            shutil.rmtree(run_dir)
    ctx.setup_s = median(times)
    return run_dir, daemon


def calib(ctx):
    out = subprocess.run([ctx.bins["perfbench_tool"], "calib"], capture_output=True, text=True, check=True)
    ctx.calib.append(float(out.stdout))


def normalised(ctx, raw):
    """`raw` times (a scalar) as they would read on the reference host."""
    return raw * CALIB_REF_MS / median(ctx.calib)


# -------------------------------------------------------------- workloads --


def batch_pipeline(ctx):
    """Cold passes, each against a fresh cache and corpus, interleaved with
    warm passes against the cache the first cold pass filled, so both kinds
    sample the whole run. Each pass is one plansep_batch run; the host
    probe runs before the set-up and after every cold pass and warm group."""
    calib(ctx)
    run_dir, _ = setup(ctx, "batch_pipeline", with_daemon=False)
    jobs = os.path.join(run_dir, "jobs.txt")
    cold_passes, warm_per_cold = (2, 2) if ctx.smoke else (3, 5)
    peak = 0.0

    def batch_pass(tag, state):
        nonlocal peak
        rows = os.path.join(run_dir, f"rows_{tag}.jsonl")
        code, wall, rss = ctx.kids.run(
            [ctx.bins["plansep_batch"], f"--jobs={jobs}", "--threads=2", f"--cache-dir={state}/cache",
             f"--corpus={state}/corpus", f"--out={rows}"],
            stderr=subprocess.DEVNULL,
        )
        peak = max(peak, rss)
        with open(rows, "rb") as f:
            return code, wall, f.read()

    cold, warm, outputs = [], [], []
    for i in range(cold_passes):
        state = os.path.join(run_dir, f"cold{i}")
        os.makedirs(os.path.join(state, "cache"))
        os.makedirs(os.path.join(state, "corpus"))
        code, wall, rows = batch_pass(f"cold{i}", state)
        cold.append(wall)
        outputs.append((code, rows))
        calib(ctx)
        for j in range(warm_per_cold):
            code, wall, rows = batch_pass(f"warm{i}_{j}", os.path.join(run_dir, "cold0"))
            warm.append(wall)
            outputs.append((code, rows))
        calib(ctx)

    # Every row ok and verified; every pass byte-identical to the first.
    reference = outputs[0][1].splitlines()
    for code, rows in outputs:
        lines = rows.splitlines()
        for j in range(max(len(lines), len(reference))):
            ctx.attempted += 1
            line = lines[j] if j < len(lines) else b""
            ok = code == 0 and j < len(reference) and line == reference[j]
            if ok:
                row = json.loads(line)
                ok = row.get("status") == "ok" and row["separator"]["verified"] and row["dfs"]["verified"]
            ctx.failed += not ok
    note("rows_digest", hashlib.sha256(outputs[0][1]).hexdigest()[:16])
    report("batch_cold_s", median(cold), "s", "raw; median of cold passes " + " ".join(f"{t:.3f}" for t in cold))
    report("batch_warm_s", median(warm), "s", f"raw; median of {len(warm)} warm passes")
    return {
        "peak_rss_mb": (peak, "MB"),
        "cold_or_accept_s": (normalised(ctx, median(cold)), "s"),
        "warm_or_reject_ms": (normalised(ctx, median(warm) * 1000), "ms"),
    }


def query_serve(ctx):
    """A fresh plansepd: one cold query per instance, then the closed loop.
    Before and after it, a further fresh plansepd answers only the cold
    queries, so the cold phase is sampled three times across the run. The
    host probe runs before the set-up, after every client (which runs it
    between its two phases too) and after every drain."""
    requests = 64 if ctx.smoke else 2000
    calib(ctx)
    run_dir, daemon = setup(ctx, "query_serve", with_daemon=True, extra=(f"--requests={requests}",))

    def client(d, n, tag):
        """Runs the query client against `d` with `n` loop requests; the
        client drains `d`. Returns its result and the peak RSS of `d`."""
        out = os.path.join(run_dir, f"query_{tag}.json")
        tool(ctx.bins, ctx.kids, "query", f"--socket={d.sock}", f"--seed={ctx.seed}", f"--dir={run_dir}",
             f"--requests={n}", f"--out={out}", *ctx.smoke)
        calib(ctx)
        rss = d.finish()
        calib(ctx)
        with open(out) as f:
            res = json.load(f)
        ctx.calib.append(res["calib_ms"])
        ctx.attempted += res["attempted"]
        ctx.failed += res["failed"]
        return res, rss

    def cold_only(tag):
        d_dir = os.path.join(run_dir, tag)
        os.makedirs(d_dir)
        res, rss = client(Daemon(ctx.bins, ctx.kids, d_dir), 0, tag)
        return sum(res["cold_ms"]) / 1000, rss

    cold_a, rss_a = cold_only("cold_a")
    res, peak = client(daemon, requests, "main")
    cold_b, rss_b = cold_only("cold_b")
    peak = max(peak, rss_a, rss_b)
    cold = [cold_a, sum(res["cold_ms"]) / 1000, cold_b]
    first_answer_s = median(cold)
    lat = res["lat_ms"]
    pct, tail, n = tail_percentile(lat)
    note("answers_digest", res["answers_digest"])
    report("first_answer_s", first_answer_s, "s",
           "raw; median of three cold phases of four first queries: " + " ".join(f"{t:.3f}" for t in cold))
    report("query_rps", len(lat) / res["loop_s"], "1/s", f"raw; {len(lat)} requests, 4 outstanding")
    report("query_p50_ms", median(lat), "ms", "raw")
    if pct is not None:
        report(f"query_p{pct:g}_ms", tail, "ms", f"raw; {n} samples")
    report("query_engine_hit_ratio", res["engine_hits"] / max(1, res["hot"]), "ratio")
    return {
        "peak_rss_mb": (peak, "MB"),
        "cold_or_accept_s": (normalised(ctx, first_answer_s), "s"),
        "warm_or_reject_ms": (normalised(ctx, median(lat)), "ms"),
    }


def ingest_admit(ctx):
    """One plansep_ingest per text, sequentially; every text is admitted
    `reps` times (round-robin over the texts) into a fresh corpus. The host
    probe runs before the set-up and after every half round."""
    calib(ctx)
    run_dir, _ = setup(ctx, "ingest_admit", with_daemon=False)
    with open(os.path.join(run_dir, "manifest.tsv")) as f:
        texts = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    reps = 2
    times = {name: [] for name, _, _, _ in texts}
    peak = 0.0
    for rep in range(reps):
        for k, (name, file, _, verdict) in enumerate(texts):
            corpus = os.path.join(run_dir, f"corpus_{rep}_{k}")
            err_path = os.path.join(run_dir, "ingest.err")
            with open(err_path, "w") as err:
                code, wall, rss = ctx.kids.run(
                    [ctx.bins["plansep_ingest"], os.path.join(run_dir, file), f"--corpus={corpus}", "--quiet"],
                    stderr=err,
                )
            with open(err_path) as err:
                message = err.read()
            peak = max(peak, rss)
            times[name].append(wall)
            ctx.attempted += 1
            if verdict == "accept":
                ok = code == 0
            else:
                ok = code == 1 and "[non-planar]" in message
            ctx.failed += not ok
            if k + 1 in (len(texts) // 2, len(texts)):
                calib(ctx)
    accept = [t for t in texts if t[3] == "accept"]
    reject = [t for t in texts if t[3] == "reject"]
    accept_s = sum(median(times[t[0]]) for t in accept)
    reject_s = sum(median(times[t[0]]) for t in reject)
    report("ingest_accept_mb_s", rate_mb_s([int(t[2]) for t in accept], [times[t[0]] for t in accept]), "MB/s",
           f"raw; {len(accept)} planar texts, median of {reps} each")
    report("ingest_reject_mb_s", rate_mb_s([int(t[2]) for t in reject], [times[t[0]] for t in reject]), "MB/s",
           f"raw; {len(reject)} K5 texts, median of {reps} each")
    return {
        "peak_rss_mb": (peak, "MB"),
        "cold_or_accept_s": (normalised(ctx, accept_s), "s"),
        "warm_or_reject_ms": (normalised(ctx, reject_s * 1000), "ms"),
    }


def traced(ctx):
    """The traced run: every unit kind, in process and through plansepd."""
    run_dir, daemon = setup(ctx, "all", with_daemon=True)
    out = os.path.join(run_dir, "layers.json")
    trace_out = os.path.join(ctx.work, "perfbench.trace.json")
    tool(ctx.bins, ctx.kids, "trace", f"--socket={daemon.sock}", f"--seed={ctx.seed}", f"--dir={run_dir}",
         f"--out={out}", f"--trace-out={trace_out}", *ctx.smoke)
    daemon.finish()
    with open(out) as f:
        res = json.load(f)
    ctx.attempted += res["attempted"]
    ctx.failed += res["failed"]
    for kind, cov in res["coverage"].items():
        report(f"trace.coverage.{kind}", cov, "ratio")
    keep = os.path.join(ROOT, ".bench_run", "last.trace.json")
    shutil.copyfile(trace_out, keep)
    note("trace_file", os.path.relpath(keep, ROOT))
    return {name: (m["value"], m["unit"]) for name, m in res["metrics"].items()}


WORKLOADS = {"batch_pipeline": batch_pipeline, "query_serve": query_serve, "ingest_admit": ingest_admit}


class Context:
    def __init__(self, args, bins):
        self.seed = args.seed
        self.smoke = ("--smoke",) if args.smoke else ()
        self.bins = bins
        self.kids = Children()
        self.work = os.path.join(ROOT, ".bench_run", f"run-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.setup_s = None
        self.setups = 0
        self.calib = []


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25,
                    help="accepted but unused: every run does a fixed amount of work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, same code path")
    args = ap.parse_args()

    def stop(signum, _frame):
        raise RunError(f"stopped by signal {signum}")

    # A caller that stops the run must not leave plansepd or a compiler
    # behind.
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    os.chdir(ROOT)
    try:
        bins = build()
    except RunError as e:
        print(f"perfbench: build: {e}", file=sys.stderr)
        return 1
    ctx = Context(args, bins)
    shutil.rmtree(ctx.work, ignore_errors=True)
    os.makedirs(ctx.work)
    try:
        metrics = traced(ctx) if args.trace else WORKLOADS[args.workload](ctx)
        ctx.kids.assert_none_left()
    except (RunError, subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        ctx.kids.kill_all()
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    if not args.trace:
        report("host.calib_ms", median(ctx.calib), "ms", " ".join(f"{c:.1f}" for c in ctx.calib))
        report("setup_s", ctx.setup_s, "s", f"raw; median of {ctx.setups} set-ups")
        metrics["setup_s"] = (normalised(ctx, ctx.setup_s), "s")
    report("attempted", ctx.attempted, "ops", f"{ctx.failed} failed")
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
