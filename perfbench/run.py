#!/usr/bin/env python3
"""Repository benchmark: build the measuring binary, generate seeded
inputs, run one workload, and print the result.

    python3 perfbench/run.py --workload traverse --seed 1 --seconds 25 --trace 0

Run from the repository root. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the
metrics are the `end_to_end` entries of BENCHMARK.json (`--trace 0`) or
its `per_layer` entries (`--trace 1`). The line before it carries every
figure the run measured, including the workload-specific ones, and the
same is written, stamped with the host shape, to
`perfbench/out/<workload>-seed<seed>-trace<t>.json`. A traced run also
writes its `snap_obs` RunReport next to it (`...report.json`), which
`snap-cli obs top` / `obs efficiency` / `obs critical-path` read.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("traverse", "centrality_ccsr", "serve_churn")
# Seconds allowed to each child process.
BUILD_TIMEOUT = 850
GEN_TIMEOUT = 60
# A run takes --seconds plus set-up, warm-up, validation and, on the
# batch workloads, the passes it needs beyond --seconds for enough samples.
SETUP_MARGIN = 120


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    """First line of a command's output, or "unknown" if it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    line = out.stdout.strip().splitlines()[:1]
    return line[0] if out.returncode == 0 and line else "unknown"


def host_cpu_ticks():
    """Total and stolen CPU ticks of the host so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
        return sum(ticks), ticks[7]
    except (OSError, ValueError, IndexError):
        return None


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die("build failed")
    return os.path.join(target, "release", "snap-perfbench")


def run_child(cmd, timeout):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"{cmd[1]} failed: {e}")
    if done.returncode != 0:
        die(f"{cmd[1]} exited with {done.returncode}")
    return done.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    work = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
    os.makedirs(work, exist_ok=True)
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--dir", work,
    ]
    run_child([binary, "gen"] + common, GEN_TIMEOUT)

    stamp = {
        "nproc": str(len(os.sched_getaffinity(0))),
        "profile": "release",
        "git_revision": command_output(["git", "rev-parse", "HEAD"]),
        "rustc": command_output(["rustc", "--version"]),
        "seed": str(args.seed),
        "workload": args.workload,
        "seconds": str(args.seconds),
        "trace": str(args.trace),
    }
    before = host_cpu_ticks()
    out = run_child(
        [binary, "run"] + common + ["--trace", str(args.trace), "--stamp", json.dumps(stamp)],
        args.seconds + SETUP_MARGIN,
    )
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        die("run printed no result")

    after = host_cpu_ticks()
    if before and after and after[0] > before[0]:
        # Share of CPU time the hypervisor gave to other guests during
        # the run: a high figure explains a slow run.
        stamp["steal_pct"] = f"{100 * (after[1] - before[1]) / (after[0] - before[0]):.2f}"
    figures = dict(result["e2e"])
    figures.update(result["layers"])
    stamp.update(result["info"])
    detail = {
        "stamp": stamp,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["error_rate"],
        "reasons": result["reasons"],
        "e2e": result["e2e"],
        "layers": result["layers"],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(HERE, "out", name + ".json"), "w") as f:
        json.dump(detail, f, indent=1)
    if args.trace:
        os.replace(os.path.join(work, "report.json"), os.path.join(HERE, "out", name + ".report.json"))
    # The generated inputs are tens of MB per seed; the seed remakes them.
    shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in declared:
        if not isinstance(figures.get(m["name"], {}).get("value"), (int, float)):
            die(f"{args.workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": figures[m["name"]]["value"], "unit": m["unit"]}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
