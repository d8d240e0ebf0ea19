#!/usr/bin/env python3
"""Builds and runs one workload of the CamE benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload came_train --seed 1 --seconds 20 --trace 0

The first run builds perfbench/came_perf from the library sources into
.bench_build/perfbench (CMake, Release). Each run then executes the
workload in a fresh process with every CAME_* environment variable
removed, checks its outputs, and prints one line per metric followed by a
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload twice with the same seed, first untraced and then traced, and
reports the per-layer metrics (derived from the traced run's spans and
counters) plus the tracing overhead as traced/untraced ratios of the
end-to-end metrics. Both runs must reproduce the same output digest.

Scratch data goes to .bench_work/<workload>/ and is deleted after the run;
the run record (configuration, phases, host steal, every number measured)
stays in .bench_work/records/. perfbench/README.md describes the workloads
and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_DIR = os.path.join(REPO, ".bench_build", "perfbench")
WORK_DIR = os.path.join(REPO, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "came_perf")
WORKLOADS = ("came_train", "came_serve", "sharded_distmult")
BUILD_JOBS = 3
RUN_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def source_files():
    """Every file the benchmark binary is compiled from, sorted."""
    files = []
    for top in ("src", "bench", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(REPO, top)):
            for name in names:
                if name.endswith((".cc", ".h", ".txt")):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for path in source_files():
        h.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def build():
    for needed in ("src/CMakeLists.txt", "bench/bench_common.cc"):
        if not os.path.isfile(os.path.join(REPO, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository", 3)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS), "--target", "came_perf"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def run_workload(args, trace, tag):
    """Runs the binary once and returns the result it wrote."""
    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = os.path.join(work, "result.json")
    spans = os.path.join(WORK_DIR, "records", f"{tag}.spans.tsv")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAME_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work_dir", work, "--result", result]
    if trace:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not os.path.isfile(result):
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{args.workload} exited with code {proc.returncode}")
    with open(result) as f:
        out = json.load(f)
    shutil.rmtree(work, ignore_errors=True)
    return out


def check_digest(key, digest):
    """Same source, workload, seed and --seconds must give the same digest."""
    path = os.path.join(WORK_DIR, "digests.json")
    known = {}
    if os.path.isfile(path):
        with open(path) as f:
            known = json.load(f)
    if key in known:
        return known[key] == digest
    known[key] = digest
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    os.makedirs(os.path.join(WORK_DIR, "records"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    src = source_digest()

    started = time.time()
    plain = run_workload(args, 0, tag)
    runs = [plain]
    traced = None
    if args.trace:
        traced = run_workload(args, 1, tag)
        runs.append(traced)

    errors = []
    for r in runs:
        errors += r["errors"]
        if not r["correct"]:
            errors.append("the workload reported incorrect output")
    if traced is not None and traced["digest"] != plain["digest"]:
        errors.append("traced run digest %s != untraced %s" % (traced["digest"], plain["digest"]))
    key = f"{src}:{args.workload}:{args.seed}:{args.seconds}"
    if not check_digest(key, plain["digest"]):
        errors.append("digest %s differs from an earlier run of the same source and seed"
                      % plain["digest"])

    e2e = spec["end_to_end"]
    if args.trace:
        layer = dict(traced["layer"])
        for m in e2e:
            base = plain["e2e"][m["name"]]
            layer[f"tracing.{m['name']}_ratio"] = traced["e2e"][m["name"]] / base if base else 0.0
        chosen = [(m, layer.get(m["name"], 0.0)) for m in spec["per_layer"]]
    else:
        chosen = [(m, plain["e2e"][m["name"]]) for m in e2e]
        for m, v in chosen:
            if not v > 0:
                errors.append(f"end-to-end metric {m['name']} is {v}")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = not errors and failed == 0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(), "source_sha256": src,
        "wall_s": time.time() - started, "correct": correct, "errors": errors,
        "runs": runs,
    }
    with open(os.path.join(WORK_DIR, "records", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    cfg = plain["config"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"pool_threads={cfg['pool_threads']} clients={cfg['clients']} nproc={cfg['nproc']} "
          f"gemm={cfg['gemm_kernel']} qgemm={cfg['qgemm_kernel']} dtype={cfg['score_dtype']} "
          f"prune={cfg['prune']} git={record['git_revision'][:12]} src={src[:12]}")
    for r in runs:
        for p in r["phases"]:
            print(f"# phase {p['name']:<16} attempted={p['attempted']:<6} failed={p['failed']:<3} "
                  f"wall={p['wall_s']:.3f}s cpu_util={p['cpu_util']:.2f} sys={p['sys_share']:.2f} "
                  f"steal={p['steal_share']:.3f} iowait={p['iowait_share']:.3f} "
                  f"vcsw={p['vol_ctx_switches']}")
    print("# digest " + plain["digest"] + "  " +
          "  ".join(f"{k}={v}" for k, v in sorted(plain["info"].items())))
    for m, v in chosen:
        print(f"{args.workload:<17} {m['name']:<52} {v:>16.6g} {m['unit']}")
    for e in errors:
        print("# error: " + e)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": v, "unit": m["unit"]} for m, v in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
