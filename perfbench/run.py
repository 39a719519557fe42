#!/usr/bin/env python3
"""The repository benchmark: file in -> sorted file out, on two clocks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds paladin_sort and
perfbench_tool from source into .bench_build/ (RelWithDebInfo, the
project default).  Inputs are generated from --seed into .bench_work/ and
removed afterwards; span files of traced runs land in .bench_out/.

--trace 0 is the end-to-end side.  It runs the user-facing paladin_sort
executable as a subprocess, one invocation at a time (a closed loop with
one client), timing each from outside and checking every output.  It
prints every end_to_end metric of BENCHMARK.json.

--trace 1 is the per-layer side.  It alternates untraced CLI invocations
with traced in-process runs (perfbench_tool trace-sort / trace-service)
and prints every per_layer metric of BENCHMARK.json.  Each traced run must
reproduce the CLI's output and makespan exactly (the fidelity guard).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the run's
metadata.  See README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
CLI = BUILD / "paladin" / "examples" / "paladin_sort"
TOOL = BUILD / "perfbench_tool"

# Why each workload exists: README.md.  `records` is in u32 keys.
WORKLOADS = {
    "paper-4411": {
        "kind": "sort", "dist": "uniform", "records": 1 << 24,
        "perf": "4,4,1,1", "algorithm": "ext-psrs", "memory": 262144,
    },
    "zipf-multiway": {
        "kind": "sort", "dist": "zipf", "records": 1 << 24,
        "perf": "1,1,1,1", "algorithm": "ext-multiway", "memory": 1048576,
    },
    "service-mixed": {
        "kind": "service", "jobs": 64, "perf": "4,4,1,1",
        "policy": "fair-share", "memory": 65536,
    },
}

# Per-layer metrics each workload can measure; the others are emitted as 0
# and listed under "not_applicable" in the metadata line.
_LAYER_FIELDS = ("wall_s", "cpu_s", "wait_s", "vs", "blocks")
_SORT_COMMON = (
    [f"{l}.{f}" for l in ("ingest", "backend", "verify", "egress")
     for f in _LAYER_FIELDS]
    + [f"{l}.{f}" for l in ("seq", "sampling", "exchange")
       for f in ("vs", "blocks")]
    + ["net.messages", "net.mb", "pdm.write_amp", "pdm.read_amp",
       "helpers.cpu_s", "sampling.expansion", "trace.overhead_s"])
LAYER_METRICS = {
    "paper-4411": _SORT_COMMON + [
        f"{l}.{f}" for l in ("seq", "sampling", "exchange")
        for f in ("wall_s", "cpu_s", "wait_s")] + [
        "seq.ns_per_rec", "exchange.ns_per_rec"],
    "zipf-multiway": _SORT_COMMON,
    "service-mixed": [
        "service.wall_s", "service.cpu_s", "service.vs", "service.blocks",
        "backend.vs", "pdm.write_amp",
        "pdm.read_amp", "trace.overhead_s"],
}

END_TO_END = ("sort_wall_s", "sort_mb_s", "cpu_s", "peak_rss_mb", "setup_s",
              "makespan_vs", "ok_ratio", "jobs_per_vs", "job_latency_p50_vs",
              "job_latency_p80_vs")

SETUP_REPS = 3          # cold invocations per run; setup_s is their median
MIN_INVOCATIONS = 3     # measured invocations per run, at least
RUN_DEADLINE_S = 150    # a run stops invoking after this long (limit: 180)


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ---- build -----------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no paladin sources under {ROOT}")
    cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD)]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").is_file():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench_all",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def tool_meta():
    out = subprocess.run([str(TOOL), "meta"], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def source_digest():
    """Identity of the measured sources (a checkout need not be a repo)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "examples"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


# ---- inputs ----------------------------------------------------------------

class SplitMix64:
    """Seeded generator for job lists; stable across Python versions."""

    def __init__(self, seed):
        self.state = (seed * 0x9E3779B97F4A7C15 + 0x6A09E667) & (2**64 - 1)

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        return z ^ (z >> 31)

    def shuffled(self, items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.next() % (i + 1)
            items[i], items[j] = items[j], items[i]
        return items


# The service-mixed job structure is drawn once from this constant; the run
# seed picks only the keys (see job_list).
STRUCTURE_SEED = 2002


def job_list(seed, count=64):
    """The service-mixed job list: `count` open-arrival jobs.

    Every 16th job is a 2M-record job with uniform keys, one per backend;
    the rest are 16K-128K records with uniform or zipf keys.  Job sizes
    are log-spaced over that range, inter-arrival gaps are the quantiles of
    an exponential with mean 0.5 virtual s, and backends, key
    distributions and widths are balanced, all in an order drawn from
    STRUCTURE_SEED.  `seed` draws each job's
    key seed.  Job order and placement decide which jobs queue behind a
    2M-record job, which moves latency and throughput far more than the
    keys do; fixing them keeps runs with different seeds comparable.  The
    2M-record jobs get uniform keys for the same reason: on zipf keys their
    virtual time swings up to 2x with the key seed (bucket imbalance),
    which reorders the whole schedule.
    """
    rng = SplitMix64(STRUCTURE_SEED)
    keys = SplitMix64(seed)
    big = [i for i in range(count) if i % 16 == 15]
    small = [i for i in range(count) if i % 16 != 15]
    algos = ("ext-psrs", "ext-multiway", "ext-distribution",
             "ext-overpartition")
    ns = len(small)
    sizes = rng.shuffled(round(16384 * 8 ** ((k + 0.5) / ns)) for k in range(ns))
    dists = rng.shuffled(("uniform", "zipf")[k % 2] for k in range(ns))
    small_algos = rng.shuffled(algos[k % 4] for k in range(ns))
    widths = rng.shuffled((1, 2, 4)[k % 3] for k in range(ns))
    big_algos = rng.shuffled(algos[k % 4] for k in range(len(big)))
    gaps = rng.shuffled(-0.5 * math.log(1 - (k + 0.5) / count)
                        for k in range(count))
    lines = [f"# perfbench service-mixed seed={seed}"]
    arrival = 0.0
    for i in range(count):
        if i in big:
            b = big.index(i)
            n, dist, algo, width = 1 << 21, "uniform", big_algos[b], 4
        else:
            s = small.index(i)
            n, dist, algo, width = sizes[s], dists[s], small_algos[s], widths[s]
        job_seed = keys.next() % (2**63 - 1) + 1
        lines.append(f"id={i},n={n},dist={dist},algo={algo},width={width},"
                     f"arrival={arrival:.6f},seed={job_seed}")
        arrival += gaps[i]
    return "\n".join(lines) + "\n"


def make_input(wl, seed, work):
    """Writes the workload's input under `work`; returns its path."""
    if wl["kind"] == "sort":
        path = work / "keys.bin"
        subprocess.run([str(TOOL), "gen-keys", "--dist", wl["dist"],
                        "--records", str(wl["records"]), "--seed", str(seed),
                        "--out", str(path)], check=True, stdout=sys.stderr)
        return path
    path = work / "jobs.txt"
    path.write_text(job_list(seed, wl["jobs"]))
    return path


# ---- invocations -----------------------------------------------------------

def invoke(cmd, cwd, log_path, deadline):
    """Runs one process, killed at `deadline` (perf_counter seconds);
    returns (exit code, wall s, cpu s, peak RSS MB, output text)."""
    with open(log_path, "wb") as f:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=f, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = Path(log_path).read_text(errors="replace")
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss * 1024 / 1e6, text)


def cli_command(wl, inp, out):
    if wl["kind"] == "sort":
        return [str(CLI), "--input", str(inp), "--output", str(out),
                "--perf", wl["perf"], "--algorithm", wl["algorithm"],
                "--memory", str(wl["memory"])]
    return [str(CLI), "--jobs", str(inp), "--perf", wl["perf"],
            "--policy", wl["policy"], "--memory", str(wl["memory"])]


def check_sort_output(inp, out):
    r = subprocess.run([str(TOOL), "check", "--input", str(inp),
                        "--output", str(out)], capture_output=True, text=True)
    res = json.loads(r.stdout) if r.stdout.strip() else {"ok": False,
                                                         "reason": r.stderr}
    return res


def nearest_rank(values, q):
    v = sorted(values)
    return v[max(1, math.ceil(q * len(v))) - 1]


def parse_sort(code, text, inp, out, nbytes):
    """One sort invocation -> (outcome dict, failed count).  Attempted = 1."""
    res = {"code": code}
    m = re.search(r"simulated makespan: (\S+) s; sublist expansion: (\S+)", text)
    check = check_sort_output(inp, out) if code == 0 else {"ok": False}
    if code != 0 or not m or not check["ok"]:
        res["reason"] = check.get("reason") or f"exit {code}"
        return res, 1
    makespan = float(m.group(1))
    res.update(makespan=m.group(1), expansion=m.group(2), hash=check["hash"],
               vs={"makespan_vs": makespan, "jobs_per_vs": 1.0 / makespan,
                   "job_latency_p50_vs": makespan,
                   "job_latency_p80_vs": makespan},
               bytes=nbytes)
    return res, 0


_ROW = re.compile(r"^\|\s*(\d+)\s*\|" + r"([^|]*)\|" * 9 + r"\s*$")


def parse_service(code, text, jobs):
    """One service invocation -> (outcome dict, failed jobs).  Attempted =
    the number of jobs in the list."""
    res = {"code": code}
    rows = [_ROW.match(line) for line in text.splitlines()]
    rows = [r for r in rows if r]
    m = re.search(r"^makespan (\S+) s;", text, re.M)
    if len(rows) != jobs or not m:
        res["reason"] = f"exit {code}, {len(rows)} job rows"
        return res, jobs
    ok = [r.group(10).strip() == "yes" for r in rows]
    failed = ok.count(False)
    if code != 0 and failed == 0:
        failed = jobs
    if failed:
        res["reason"] = f"exit {code}, {failed} job(s) not ok"
        return res, failed
    lat = [float(r.group(9)) for r in rows]
    makespan = float(m.group(1))
    res.update(makespan=m.group(1), latencies=[r.group(9).strip() for r in rows],
               vs={"makespan_vs": makespan, "jobs_per_vs": jobs / makespan,
                   "job_latency_p50_vs": nearest_rank(lat, 0.50),
                   "job_latency_p80_vs": nearest_rank(lat, 0.80)},
               bytes=4 * sum(int(r.group(4)) for r in rows))
    return res, 0


class Run:
    """State of one benchmark run: counts, samples, determinism check."""

    def __init__(self, name, seed, wl=None):
        self.wl = wl or WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.work = WORK / f"{name}-s{seed}-p{os.getpid()}"
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.reference = None   # first successful outcome
        self.k = 0

    def cli(self, inp):
        """One untraced CLI invocation, checked.  Returns (sample, outcome);
        sample is None when the invocation failed."""
        self.k += 1
        out = self.work / "sorted.bin"
        if out.exists():
            out.unlink()
        code, wall, cpu, rss, text = invoke(cli_command(self.wl, inp, out),
                                            self.work, self.work / "cli.log",
                                            self.deadline)
        if self.wl["kind"] == "sort":
            res, failed = parse_sort(code, text, inp, out, inp.stat().st_size)
            self.attempted += 1
        else:
            res, failed = parse_service(code, text, self.wl["jobs"])
            self.attempted += self.wl["jobs"]
        if not failed and self.reference is None:
            self.reference = res
        elif not failed and res["vs"] != self.reference["vs"]:
            res["reason"], failed = "virtual time differs between invocations", 1
        self.failed += failed
        if failed:
            log(f"invocation {self.k} failed: {res.get('reason')}")
            return None, res
        return {"wall": wall, "cpu": cpu, "rss": rss}, res


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def end_to_end(run, seconds):
    inp = None
    setups = []
    for _ in range(SETUP_REPS):
        # Set-up: fresh input, then the first (cold) invocation on it.
        shutil.rmtree(run.work, ignore_errors=True)
        run.work.mkdir(parents=True)
        inp = make_input(run.wl, run.seed, run.work)
        sample, _ = run.cli(inp)
        if sample:
            setups.append(sample["wall"])
    samples = []
    t0 = time.perf_counter()
    while (len(samples) < MIN_INVOCATIONS
           or time.perf_counter() - t0 < seconds):
        sample, _ = run.cli(inp)
        if sample:
            samples.append(sample)
        if run.failed and time.perf_counter() - t0 >= seconds:
            break
    if not samples or not setups or run.reference is None:
        raise BenchError("no successful invocation")
    ref = run.reference
    wall = median_of(samples, "wall")
    metrics = {
        "sort_wall_s": wall,
        "sort_mb_s": ref["bytes"] / 1e6 / wall,
        "cpu_s": median_of(samples, "cpu"),
        "peak_rss_mb": median_of(samples, "rss"),
        "setup_s": statistics.median(setups),
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
        **ref["vs"],
    }
    extra = {"invocations": len(samples), "setup_invocations": SETUP_REPS,
             "input_bytes": ref["bytes"],
             "walls_s": [round(s["wall"], 4) for s in samples],
             "setup_walls_s": [round(w, 4) for w in setups]}
    if "expansion" in ref:
        extra["expansion"] = float(ref["expansion"])
    return metrics, extra


def per_layer(run, seconds):
    run.work.mkdir(parents=True)
    inp = make_input(run.wl, run.seed, run.work)
    OUT.mkdir(exist_ok=True)
    prefix = OUT / f"{run.name}-s{run.seed}"
    wl = run.wl
    if wl["kind"] == "sort":
        cmd = [str(TOOL), "trace-sort", "--input", str(inp),
               "--output", str(run.work / "traced.bin"),
               "--perf", wl["perf"], "--algorithm", wl["algorithm"],
               "--memory", str(wl["memory"]), "--prefix", str(prefix)]
    else:
        cmd = [str(TOOL), "trace-service", "--jobs", str(inp),
               "--perf", wl["perf"], "--policy", wl["policy"],
               "--memory", str(wl["memory"]), "--prefix", str(prefix)]
    cli_walls, traced_walls, layer_samples = [], [], []
    t0 = time.perf_counter()
    while (len(traced_walls) < MIN_INVOCATIONS
           or time.perf_counter() - t0 < seconds):
        sample, ref = run.cli(inp)
        if sample:
            cli_walls.append(sample["wall"])
        code, wall, _, _, text = invoke(cmd, run.work, run.work / "tool.log",
                                        run.deadline)
        run.attempted += 1
        reason = fidelity(wl, code, text, prefix, inp,
                          ref if sample else None)
        if reason:
            run.failed += 1
            log(f"traced run failed: {reason}")
            if time.perf_counter() - t0 >= seconds:
                break
            continue
        traced_walls.append(wall)
        layer_samples.append(
            json.loads(Path(f"{prefix}.layers.json").read_text())["metrics"])
    if not traced_walls or not cli_walls:
        raise BenchError("no successful traced run")
    metrics = {"trace.overhead_s": (statistics.median(traced_walls)
                                    - statistics.median(cli_walls))}
    for name in LAYER_METRICS[run.name]:
        if all(name in s for s in layer_samples):
            metrics[name] = statistics.median(s[name] for s in layer_samples)
    extra = {"traced_runs": len(traced_walls),
             "untraced_invocations": len(cli_walls),
             "span_files": [str(Path(f"{prefix}.{s}.json").relative_to(ROOT))
                            for s in ("host", "trace", "report")
                            if Path(f"{prefix}.{s}.json").exists()]}
    return metrics, extra


def fidelity(wl, code, text, prefix, inp, ref):
    """Why the traced run does not reproduce the CLI invocation `ref`, or
    None."""
    if code != 0:
        return f"perfbench_tool exit {code}: {text.strip()[-300:]}"
    if ref is None:
        return "no CLI reference to compare against"
    facts = json.loads(Path(f"{prefix}.layers.json").read_text())["facts"]
    if facts["makespan"] != ref["makespan"]:
        return f"makespan {facts['makespan']} != CLI {ref['makespan']}"
    if wl["kind"] == "service":
        if facts["latencies"].split() != ref["latencies"]:
            return "job latencies differ from the CLI's"
        return None
    if facts["expansion"] != ref["expansion"]:
        return f"expansion {facts['expansion']} != CLI {ref['expansion']}"
    check = check_sort_output(inp, inp.parent / "traced.bin")
    if not check["ok"] or check["hash"] != ref["hash"]:
        return "traced output differs from the CLI's"
    return None


def declared_metrics():
    """BENCHMARK.json's metric lists, checked against what run.py emits."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {n for names in LAYER_METRICS.values() for n in names}
    if ({d["name"] for d in spec["end_to_end"]} != set(END_TO_END)
            or {d["name"] for d in spec["per_layer"]} != layers):
        raise BenchError("BENCHMARK.json metrics differ from run.py's")
    return spec["end_to_end"], spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    end_decl, layer_decl = declared_metrics()
    build()
    meta = tool_meta()
    run = Run(args.workload, args.seed)
    shutil.rmtree(run.work, ignore_errors=True)
    try:
        if args.trace:
            measured, extra = per_layer(run, args.seconds)
            declared = layer_decl
        else:
            measured, extra = end_to_end(run, args.seconds)
            declared = end_decl
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    metrics = {d["name"]: {"value": measured.get(d["name"], 0.0),
                           "unit": d["unit"]} for d in declared}
    meta.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        nproc=os.cpu_count(), node_threads=len(run.wl["perf"].split(",")),
        git_sha=git_sha(), source_digest=source_digest(),
        load="closed loop, one client", **extra,
        not_applicable=sorted(d["name"] for d in declared
                              if d["name"] not in measured))
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        sys.exit(1)
