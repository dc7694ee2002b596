#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--smoke]

Run from the repository root. Builds the harness (`perfbench/`, a cargo
workspace of its own) and the `dirqd` daemon in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), prints one `host` line
(provenance), then runs the harness. The last stdout line is the result
object `{"correct", "attempted", "failed", "metrics"}`. The exit code is
non-zero when the build fails, a check fails or the harness overruns.

`--all` runs every workload untraced and prints each end-to-end metric
by name with its unit, exiting non-zero if any workload fails.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_50", "stress_20000", "dirqd_serve"]
# Hard limit on one harness run; every workload budget stays well inside.
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ["crates", "src", "perfbench/src"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "-q"] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"build failed: {' '.join(cmd)}")


def build():
    """Build the harness and the daemon; return their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise RuntimeError("no Cargo.toml at the repository root: nothing to benchmark")
    cargo_build(["--manifest-path", "perfbench/Cargo.toml"])
    cargo_build(["--manifest-path", "Cargo.toml", "-p", "dirq-dirqd", "--bin", "dirqd"])
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "dirqd")


def source_digest():
    """SHA-256 over the benchmarked sources (path + bytes, sorted)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in filenames]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_block():
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": rustc,
        "profile": "release",
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def stop_group(pgid):
    """Kill what is left of the harness's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_harness(harness, dirqd, workload, seed, seconds, trace, smoke):
    """Run one workload; return (exit code, result dict or None)."""
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [harness, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--dirqd", dirqd, "--out-dir", out_dir]
    if smoke:
        cmd.append("--smoke")
    # A process group of its own, so a timeout can stop the harness and its daemon child together.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        log(f"{workload}: harness overran {RUN_TIMEOUT_S} s and was stopped")
        return 1, None
    finally:
        stop_group(proc.pid)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"{workload}: harness printed no result (exit {proc.returncode})")
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload untraced and print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="seconds-long run of the same code path")
    a = ap.parse_args()
    if not a.all and a.workload is None:
        ap.error("--workload or --all is required")
    seconds = a.seconds if a.seconds is not None else (2 if a.smoke else 30)

    try:
        harness, dirqd = build()
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 1
    print(json.dumps({"host": host_block()}), flush=True)

    if not a.all:
        code, result = run_harness(harness, dirqd, a.workload, a.seed, seconds, a.trace == 1, a.smoke)
        if result is None:
            return code or 1
        print(json.dumps(result), flush=True)
        return code if code else (0 if result["correct"] else 1)

    failed = False
    for w in WORKLOADS:
        code, result = run_harness(harness, dirqd, w, a.seed, seconds, False, a.smoke)
        ok = result is not None and code == 0 and result["correct"]
        failed |= not ok
        print(f"{w}: {'ok' if ok else 'FAILED'}", flush=True)
        for name, m in (result or {}).get("metrics", {}).items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:<14} {value:>16} {m['unit']}", flush=True)
        if result is not None:
            print(f"  attempted={result['attempted']} failed={result['failed']}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
