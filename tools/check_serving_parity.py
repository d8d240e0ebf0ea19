#!/usr/bin/env python3
"""CI gate for the serving path.

Reads the BENCH_serving.json emitted by bench_serving. Every batched
answer must equal the same query's unbatched answer, ids and score bits
("batched_answers_match": a coalesced batch replays the query plan
over blocks of rows, and each row is bitwise the single query's).

It enforces the quantized-vs-fp32 quality floor on the int8 section:

  * top-K agreement >= the floor (default 0.99),
  * entity-matrix bytes <= the ratio ceiling (default 0.3x fp32),
  * the parity numbers were produced on the *expected pinned kernel*
    (default scalar), so the gated values are host-independent,
  * quantized throughput at the max thread count is reported (and gated
    only by --min_throughput_ratio when explicitly requested: wall-clock
    numbers from shared CI runners are too noisy for a hard default gate).

Also gates the exact panel-skip pruning section ("pruning"): the
pruned-vs-unpruned bitwise parity grid must have run on the pinned
kernel over every serving dtype with zero mismatches, and pruning must
have actually skipped panels on the skewed table (a sweep that never
prunes trivially passes parity and gates nothing). The prune-on/prune-off
speedup (both arms serve concurrent clients, so it isolates pruning) is
reported for the skewed and the folded CamE table, and gated only by
--min_prune_speedup (skewed table) when explicitly requested, for the
same wall-clock-noise reason as above.

Exit code 0 when every check passes, 1 with a per-check report otherwise.

Usage:
  check_serving_parity.py --json BENCH_serving.json [--min_agreement 0.99]
      [--max_bytes_ratio 0.3] [--expect_kernel scalar]
      [--min_throughput_ratio R] [--min_prune_speedup S]
  check_serving_parity.py --self-test
"""

import argparse
import json
import sys
import tempfile


PRUNE_DTYPES = ("fp32", "int8", "bf16")


def check_pruning(bench, expect_kernel, min_prune_speedup):
    """Failure strings for the panel-skip pruning section."""
    failures = []
    pruning = bench.get("pruning")
    if pruning is None:
        return ["BENCH_serving.json has no \"pruning\" section"]
    parity = pruning.get("prune_parity")
    if parity is None:
        return ["\"pruning\" section has no \"prune_parity\" grid"]

    kernel = parity.get("parity_kernel")
    if kernel != expect_kernel:
        failures.append(
            f"prune parity kernel is {kernel!r}, expected {expect_kernel!r} "
            "— the gated grid is not host-independent")
    cases = parity.get("cases", 0)
    if cases <= 0:
        failures.append("prune parity grid ran zero cases")
    mismatches = parity.get("mismatches", -1)
    if mismatches != 0:
        failures.append(
            f"pruned sweep diverged from unpruned in {mismatches} of "
            f"{cases} cases — pruning must be bitwise exact")
    dtypes = parity.get("dtypes", [])
    for dtype in PRUNE_DTYPES:
        if dtype not in dtypes:
            failures.append(f"prune parity grid did not cover {dtype}")
    if parity.get("panels_skipped", 0) <= 0:
        failures.append(
            "prune parity grid skipped zero panels — parity is vacuous "
            "when pruning never fires")
    if pruning.get("panels_skipped_ratio", 0.0) <= 0.0:
        failures.append(
            "pruning benchmark skipped zero panels on the skewed table")
    if min_prune_speedup is not None:
        speedup = pruning.get("prune_speedup_at_4_clients", 0.0)
        if speedup < min_prune_speedup:
            failures.append(
                f"prune-on speedup {speedup:.2f}x at 4 clients < "
                f"floor {min_prune_speedup}x")
    return failures


def check(bench, min_agreement, max_bytes_ratio, expect_kernel,
          min_throughput_ratio, min_prune_speedup=None):
    """Returns a list of failure strings (empty = gate passes)."""
    failures = check_pruning(bench, expect_kernel, min_prune_speedup)
    if bench.get("batched_answers_match") is not True:
        failures.append(
            "batched answers differ from unbatched answers (or "
            "\"batched_answers_match\" is missing) — a batch must answer "
            "each query bitwise as a single query")
    quant = bench.get("quantized")
    if quant is None:
        return failures + ["BENCH_serving.json has no \"quantized\" section"]
    int8 = quant.get("int8")
    if int8 is None:
        return failures + ["\"quantized\" section has no \"int8\" entry"]

    kernel = int8.get("parity_kernel")
    if kernel != expect_kernel:
        failures.append(
            f"parity kernel is {kernel!r}, expected {expect_kernel!r} — "
            "the gated numbers are not host-independent")

    agreement = int8.get("agreement_at_k", 0.0)
    if agreement < min_agreement:
        failures.append(
            f"int8 top-K agreement {agreement:.4f} < floor {min_agreement}")

    ratio = int8.get("bytes_ratio", 1.0)
    if ratio > max_bytes_ratio:
        failures.append(
            f"int8 entity-matrix bytes {ratio:.3f}x fp32 > "
            f"ceiling {max_bytes_ratio}x")

    if min_throughput_ratio is not None:
        tput = int8.get("throughput_vs_fp32", 0.0)
        if tput < min_throughput_ratio:
            failures.append(
                f"int8 throughput {tput:.2f}x fp32 < "
                f"floor {min_throughput_ratio}x")
    return failures


def run_gate(args):
    with open(args.json, "r", encoding="utf-8") as f:
        bench = json.load(f)
    failures = check(bench, args.min_agreement, args.max_bytes_ratio,
                     args.expect_kernel, args.min_throughput_ratio,
                     args.min_prune_speedup)
    int8 = bench.get("quantized", {}).get("int8", {})
    print(f"serving gate ({args.json}):")
    print(f"  batched == unbatched {bench.get('batched_answers_match')}")
    print(f"  parity kernel      {int8.get('parity_kernel')}")
    print(f"  agreement@K        {int8.get('agreement_at_k')}")
    print(f"  jaccard@K          {int8.get('jaccard_at_k')}")
    print(f"  max |score err|    {int8.get('max_abs_score_err')}")
    print(f"  bytes vs fp32      {int8.get('bytes_ratio')}")
    print(f"  throughput vs fp32 {int8.get('throughput_vs_fp32')}")
    pruning = bench.get("pruning", {})
    parity = pruning.get("prune_parity", {})
    print(f"  prune parity       {parity.get('mismatches')} mismatches / "
          f"{parity.get('cases')} cases over {parity.get('dtypes')}")
    print(f"  panels skipped     {pruning.get('panels_skipped')} "
          f"(ratio {pruning.get('panels_skipped_ratio')})")
    print(f"  prune speedup @4   {pruning.get('prune_speedup_at_4_clients')}")
    came = pruning.get("came", {})
    print(f"  CamE table         skip ratio "
          f"{came.get('panels_skipped_ratio')}, prune speedup @4 "
          f"{came.get('prune_speedup_at_4_clients')}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


def self_test():
    """The gate gates itself: known-good and each known-bad shape."""
    good = {
        "batched_answers_match": True,
        "quantized": {
            "int8": {
                "parity_kernel": "scalar",
                "agreement_at_k": 0.995,
                "bytes_ratio": 0.28,
                "throughput_vs_fp32": 1.1,
            }
        },
        "pruning": {
            "panels_skipped": 120,
            "panels_skipped_ratio": 0.62,
            "prune_speedup_at_4_clients": 2.1,
            "prune_parity": {
                "parity_kernel": "scalar",
                "cases": 432,
                "mismatches": 0,
                "panels_skipped": 310,
                "dtypes": ["fp32", "int8", "bf16"],
            },
        },
    }
    cases = []

    def variant(**overrides):
        bench = json.loads(json.dumps(good))
        bench["quantized"]["int8"].update(overrides)
        return bench

    def prune_variant(**overrides):
        bench = json.loads(json.dumps(good))
        parity_keys = {"parity_kernel", "cases", "mismatches",
                       "panels_skipped", "dtypes"}
        for key, val in overrides.items():
            if key in parity_keys:
                bench["pruning"]["prune_parity"][key] = val
            else:
                bench["pruning"][key] = val
        return bench

    cases.append(("good", good, 0))
    cases.append(("low agreement", variant(agreement_at_k=0.98), 1))
    cases.append(("fat bytes", variant(bytes_ratio=0.5), 1))
    cases.append(("wrong kernel", variant(parity_kernel="vnni"), 1))
    cases.append(("missing section", {"bench": "serving"}, 1))
    cases.append(("missing int8",
                  {"batched_answers_match": True, "quantized": {},
                   "pruning": good["pruning"]}, 1))
    batched_differ = json.loads(json.dumps(good))
    batched_differ["batched_answers_match"] = False
    cases.append(("batched answers differ", batched_differ, 1))
    no_batched_check = json.loads(json.dumps(good))
    del no_batched_check["batched_answers_match"]
    cases.append(("batched check missing", no_batched_check, 1))
    cases.append(("prune mismatch", prune_variant(mismatches=3), 1))
    cases.append(("prune zero cases", prune_variant(cases=0), 1))
    cases.append(("prune missing dtype",
                  prune_variant(dtypes=["fp32", "int8"]), 1))
    cases.append(("prune never fired", prune_variant(panels_skipped=0), 1))
    cases.append(("bench never pruned",
                  prune_variant(panels_skipped_ratio=0.0), 1))
    cases.append(("prune wrong kernel",
                  prune_variant(parity_kernel="avx2"), 1))
    no_pruning = {"batched_answers_match": True,
                  "quantized": good["quantized"]}
    cases.append(("missing pruning section", no_pruning, 1))

    failed = []
    for name, bench, want in cases:
        got = 1 if check(bench, 0.99, 0.3, "scalar", None) else 0
        if got != want:
            failed.append(f"{name}: gate returned {got}, wanted {want}")
    # Throughput is only gated when a floor is passed explicitly.
    if check(variant(throughput_vs_fp32=0.5), 0.99, 0.3, "scalar", None):
        failed.append("throughput gated without an explicit floor")
    if not check(variant(throughput_vs_fp32=0.5), 0.99, 0.3, "scalar", 1.0):
        failed.append("throughput floor not enforced when requested")
    # Same opt-in contract for the prune speedup floor.
    slow = prune_variant(prune_speedup_at_4_clients=1.1)
    if check(slow, 0.99, 0.3, "scalar", None):
        failed.append("prune speedup gated without an explicit floor")
    if not check(slow, 0.99, 0.3, "scalar", None, min_prune_speedup=1.5):
        failed.append("prune speedup floor not enforced when requested")
    # End to end through a real temp file.
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(good, f)
        path = f.name
    ns = argparse.Namespace(json=path, min_agreement=0.99,
                            max_bytes_ratio=0.3, expect_kernel="scalar",
                            min_throughput_ratio=None,
                            min_prune_speedup=None)
    if run_gate(ns) != 0:
        failed.append("end-to-end run on known-good JSON failed")

    if failed:
        for f in failed:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test: {len(cases) + 5} cases OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="BENCH_serving.json to gate")
    parser.add_argument("--min_agreement", type=float, default=0.99)
    parser.add_argument("--max_bytes_ratio", type=float, default=0.3)
    parser.add_argument("--expect_kernel", default="scalar")
    parser.add_argument("--min_throughput_ratio", type=float, default=None)
    parser.add_argument("--min_prune_speedup", type=float, default=None)
    parser.add_argument("--self-test", action="store_true",
                        dest="self_test")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.json:
        parser.error("--json is required unless --self-test")
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
