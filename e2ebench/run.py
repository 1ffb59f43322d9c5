#!/usr/bin/env python3
"""End-to-end benchmark of the nulpa program (see README.md).

    python3 e2ebench/run.py --workload social-nulpa --seed 1 --seconds 40 \
        --trace 0

Run from the repository root. Builds the driver (e2ebench/CMakeLists.txt)
from the repository's sources into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench), generates the workload's input from --seed, then
runs repetitions of load -> detect -> write labels, each in its own
process, for up to --seconds and at least MIN_REPS of them. Every
repetition's output is checked; the last line of stdout is one JSON object:
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
medians over the repetitions; with --trace 1 they are the per-layer ones,
from one profiled repetition plus ablation reruns.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3
# Every process after the build must end this long after the build did,
# so that a hung run still lets the benchmark exit within 180 s.
BUDGET_S = 165
deadline = None


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "e2ebench_driver", "e2ebench_checks_test"])
    steps.append([os.path.join(build_dir, "e2ebench_checks_test"),
                  "--gtest_brief=1"])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            fail(f"step failed: {' '.join(cmd)}")


def run_step(cmd):
    """Runs one driver process; returns its JSON result or None."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return None
    lines = p.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        res = None
    if p.returncode != 0 or not isinstance(res, dict) or \
            res.get("ok") is False:
        why = res.get("error") if isinstance(res, dict) else p.stderr[-400:]
        log(f"failed (exit {p.returncode}): {' '.join(cmd)}: {why}")
        return None
    return res


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Session:
    """Repetitions of one workload on one input; counts attempts/failures
    and checks that every successful repetition wrote the same labels."""

    def __init__(self, driver, workload, mtx, work):
        self.driver, self.workload, self.mtx = driver, workload, mtx
        self.labels = os.path.join(work, "labels.txt")
        self.attempted = self.failed = 0
        self.digests = set()

    def rep(self, *extra):
        self.attempted += 1
        if os.path.exists(self.labels):
            os.remove(self.labels)
        res = run_step([self.driver, "rep", "--workload", self.workload,
                        "--input", self.mtx, "--labels", self.labels,
                        *extra])
        if res is None:
            self.failed += 1
            return None
        self.digests.add(file_digest(self.labels))
        log(f"{self.workload} {' '.join(extra)}: load {res['load_s']:.3f} s,"
            f" run {res['run_s']:.3f} s, wall {res['wall_s']:.3f} s")
        return res

    def deterministic(self):
        if len(self.digests) > 1:
            log(f"labels differ between runs of {self.workload}")
            return False
        return True


def end_to_end(s, seconds):
    """Medians over the repetitions of one run."""
    reps = []
    start = last = time.monotonic()
    longest = 0.0
    # A repetition starts only if one as long as the longest so far still
    # ends within --seconds, so that a run measures about --seconds.
    while s.attempted < MIN_REPS or \
            time.monotonic() - start + longest <= seconds:
        res = s.rep()
        if res is not None:
            reps.append(res)
        now = time.monotonic()
        longest, last = max(longest, now - last), now
    if not reps:
        fail("every repetition failed")

    def med(key):
        return statistics.median(r[key] for r in reps)

    return {
        "wall_s": med("wall_s"),
        "setup_s": med("load_s"),
        "run_s": med("run_s"),
        "modeled_s": med("modeled_s"),
        "modularity": med("modularity"),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def per_layer(s, threads):
    base = s.rep()
    traced = s.rep("--profile")
    no_mem = s.rep("--track-memory", "0")
    no_sb = s.rep("--scoreboard", "0")
    one_thread = s.rep("--threads", "1") if threads > 1 else base
    if None in (base, traced, no_mem, no_sb, one_thread):
        fail("a traced or ablation run failed")
    m = dict(traced["layers"])
    m["simt.mem.host_s"] = base["run_s"] - no_mem["run_s"]
    m["simt.mem.ns_per_access"] = (
        m["simt.mem.host_s"] * 1e9 / m["simt.mem.tracked"]
        if m["simt.mem.tracked"] else 0.0)
    m["simt.sb.host_s"] = base["run_s"] - no_sb["run_s"]
    m["parallel.speedup"] = one_thread["run_s"] / base["run_s"]
    m["observe.overhead_s"] = traced["wall_s"] - base["wall_s"]
    return m


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    build(build_dir)
    global deadline
    deadline = time.monotonic() + BUDGET_S
    driver = os.path.join(build_dir, "e2ebench_driver")

    work = os.path.join(build_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        mtx = os.path.join(work, "input.mtx")
        wl = run_step([driver, "gen", "--workload", args.workload,
                       "--seed", str(args.seed), "--output", mtx])
        if wl is None:
            fail("input generation failed")
        s = Session(driver, args.workload, mtx, work)
        if args.trace:
            values = per_layer(s, wl["threads"])
        else:
            values = end_to_end(s, args.seconds)
        correct = s.deterministic()
        if wl["algo"] == "sharded":
            # Declared contract: sharded labels are byte-identical for any
            # shard count and thread count.
            before = set(s.digests)
            if s.rep("--shards", "1", "--threads", "1") is None or \
                    s.digests != before:
                log("sharded labels differ from the 1-shard serial run")
                correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": s.attempted,
                      "failed": s.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
