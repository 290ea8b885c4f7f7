#!/usr/bin/env python3
"""The engine's layered benchmark: build, run, record, compare.

Run from the root of a checkout:

  python3 benchmark/run.py                      # every workload once, untraced
  python3 benchmark/run.py --runs 5 --trace     # 5 untraced runs each + 1 traced
  python3 benchmark/run.py --seed 2             # a held-out seed
  python3 benchmark/run.py --workload q8m_mat --seed 1 --seconds 20 --trace 0
  python3 benchmark/run.py compare A.json B.json
  python3 benchmark/run.py --self-test

Every mode builds benchmark/ (a CMake project that compiles the engine from
the sources one directory up) into build-bench/ first. Each workload runs
in its own radix_bench process.

With --workload the script runs that one workload once and prints, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json for
--trace 0, its per-layer metrics for --trace 1. Without --workload it runs
every workload, prints every metric by name with its unit, and writes
benchmark/results/<short-sha>.json (see README.md for the format). Any wrong
result makes the exit status non-zero.
"""

import argparse
import copy
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-bench"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ["q8m_mat", "q8m_stream", "chain_1m", "serve_mix"]
# radix_bench gets this long before it is killed; the slowest untraced run
# (q8m_stream) takes ~35 s on a 4-CPU box.
RUN_TIMEOUT_S = 170
# Results are only comparable on the same hardware tier.
MACHINE_KEYS = ["num_cpus", "isa", "detected_hierarchy"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC_PATH.name}: {e}")


def build():
    """Configure (once) and build radix_bench; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(
            f"no engine sources next to {BENCH_DIR.name}/: run from a full "
            "checkout of the repository")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "radix_bench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=1500)
    binary = BUILD_DIR / "radix_bench"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def run_workload(binary, workload, seed, seconds, trace):
    """One radix_bench process; returns its parsed JSON record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out",
                str(BUILD_DIR / f"trace-{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: radix_bench printed nothing "
                         f"(exit {proc.returncode})")
    record = json.loads(lines[-1])
    # radix_bench exits 1 on a wrong result; the record says which.
    if proc.returncode not in (0, 1):
        raise BenchError(f"{workload}: radix_bench exited {proc.returncode}")
    return record


def print_metrics(record):
    status = "ok" if record["correct"] and record["failed"] == 0 else "WRONG"
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} attempted={record['attempted']} "
          f"failed={record['failed']} [{status}]")
    for name, m in record["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<36} {value:>14} {m['unit']}")
    ctx = record.get("context", {})
    for key in ("plan_code", "tail_percentile", "timed_queries"):
        if key in ctx:
            print(f"  ({key}: {ctx[key]})")


def single_mode(args):
    spec = load_spec()
    binary = build()
    trace = args.trace not in (None, "0")
    record = run_workload(binary, args.workload, args.seed, args.seconds,
                          trace)
    print_metrics(record)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            raise BenchError(f"{args.workload}: metric {m['name']} missing")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(record["correct"]) and record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "nogit"
    except OSError:
        return "nogit"


def results_path(sha):
    path = RESULTS_DIR / f"{sha}.json"
    k = 2
    while path.exists():
        path = RESULTS_DIR / f"{sha}.{k}.json"
        k += 1
    return path


def full_mode(args):
    binary = build()
    doc = {"sha": git_sha(),
           "date": datetime.datetime.now(datetime.timezone.utc)
                   .strftime("%Y-%m-%dT%H:%M:%SZ"),
           "seed": args.seed, "seconds": args.seconds, "runs": args.runs,
           "machine": {}, "workloads": {}}
    all_ok = True
    for wl in WORKLOADS:
        entry = {"runs": [], "traced": None}
        plan = [(args.seed + k, False) for k in range(args.runs)]
        if args.trace:
            plan.append((args.seed, True))
        for seed, trace in plan:
            record = run_workload(binary, wl, seed, args.seconds, trace)
            print_metrics(record)
            ok = record["correct"] and record["failed"] == 0
            all_ok = all_ok and ok
            for key in MACHINE_KEYS:
                doc["machine"][key] = record["context"].pop(key, None)
            record.pop("workload", None)
            if trace:
                entry["traced"] = record
            else:
                entry["runs"].append(record)
        doc["workloads"][wl] = entry
    RESULTS_DIR.mkdir(exist_ok=True)
    path = results_path(doc["sha"])
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    log(f"wrote {path}")
    if not all_ok:
        log("FAILED: a workload produced a wrong result")
    return 0 if all_ok else 1


# --------------------------------------------------------------------------
# compare


class Refuse(Exception):
    """The two result files are not comparable."""


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a, b, spec):
    """Returns (problems, table lines) for result docs a (base) and b."""
    for key in MACHINE_KEYS:
        if a["machine"].get(key) != b["machine"].get(key):
            raise Refuse(f"{key} differs: {a['machine'].get(key)!r} vs "
                         f"{b['machine'].get(key)!r}")
    problems, lines = [], []
    lines.append(f"{'workload':<11} {'metric':<16} {'A median [q1,q3]':>30} "
                 f"{'B median [q1,q3]':>30} {'change':>8} {'bound':>6}")
    for wl in sorted(set(a["workloads"]) | set(b["workloads"])):
        sides = {}
        for label, doc in (("A", a), ("B", b)):
            entry = doc["workloads"].get(wl)
            if entry is None or not entry["runs"]:
                problems.append(f"{wl}: no runs in {label}")
                continue
            for run in entry["runs"]:
                if not run["correct"] or run["failed"]:
                    problems.append(f"{wl}: {label} seed {run['seed']} "
                                    f"failed {run['failed']} of "
                                    f"{run['attempted']} (correct="
                                    f"{run['correct']})")
            sides[label] = entry["runs"]
        if len(sides) < 2:
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = {}
            for label, runs in sides.items():
                v = [r["metrics"][name]["value"] for r in runs
                     if r["metrics"].get(name, {}).get("value") is not None]
                if len(v) < len(runs):
                    problems.append(f"{wl}: {name} missing from "
                                    f"{len(runs) - len(v)} run(s) of {label}")
                vals[label] = v
            if not vals["A"] or not vals["B"]:
                continue
            qa, qb = quartiles(vals["A"]), quartiles(vals["B"])
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            worse = change > bound if m["better"] == "lower" else \
                change < -bound
            flag = "  WORSE" if worse else ""
            if worse:
                problems.append(f"{wl}: {name} {change:+.1%} beyond its "
                                f"{bound:.0%} bound")
            fmt = "{:.4g} [{:.4g},{:.4g}]"
            lines.append(f"{wl:<11} {name:<16} {fmt.format(qa[1], qa[0], qa[2]):>30} "
                         f"{fmt.format(qb[1], qb[0], qb[2]):>30} "
                         f"{change:>+8.1%} {bound:>6.0%}{flag}")
    return problems, lines


def compare_mode(paths):
    spec = load_spec()
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    try:
        problems, lines = compare(a, b, spec)
    except Refuse as e:
        print(f"refusing to compare: {e}")
        return 2
    print("\n".join(lines))
    for p in problems:
        print(f"FLAG {p}")
    print("compare: " + ("OK" if not problems else
                         f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


# --------------------------------------------------------------------------
# self-test


def synthetic_doc(spec):
    """A result doc with 5 runs per workload and +-1% run-to-run noise."""
    doc = {"sha": "selftest", "machine": {"num_cpus": "4", "isa": "avx2",
                                          "detected_hierarchy": "L1 48KiB"},
           "workloads": {}}
    for w, wl in enumerate(WORKLOADS):
        runs = []
        for k in range(5):
            noise = 1 + 0.01 * ((k * 7 + w) % 5 - 2) / 2
            metrics = {m["name"]: {"value": (10.0 + w) * noise,
                                   "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            runs.append({"seed": 1 + k, "correct": True, "attempted": 100,
                         "failed": 0, "metrics": metrics})
        doc["workloads"][wl] = {"runs": runs}
    return doc


def self_test():
    """Doctored results that compare must catch, and clean pairs it must
    pass: identical results, and a slowdown inside the bound."""
    spec = load_spec()
    base = synthetic_doc(spec)
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "latency_p50_ms")

    def slowdown(factor):
        def doctor(doc):
            for run in doc["workloads"]["chain_1m"]["runs"]:
                run["metrics"]["latency_p50_ms"]["value"] *= factor
        return doctor

    def one_failed(doc):
        doc["workloads"]["serve_mix"]["runs"][2]["failed"] = 1

    def missing(doc):
        del doc["workloads"]["q8m_stream"]["runs"][0]["metrics"][
            "latency_tail_ms"]

    def other_cpus(doc):
        doc["machine"]["num_cpus"] = "8"

    # The slowdown to catch sits 5 points past the bound, which follows the
    # measured run-to-run spread (README.md, "How the bounds were set").
    cases = [(f"{bound + 0.05:.0%} latency_p50_ms slowdown",
              slowdown(1 + bound + 0.05), "flag"),
             (f"{bound / 2:.1%} latency_p50_ms slowdown (within bound)",
              slowdown(1 + bound / 2), None),
             ("one failed query", one_failed, "flag"),
             ("missing metric", missing, "flag"),
             ("num_cpus mismatch", other_cpus, "refuse")]
    cases.append(("identical results", lambda doc: None, None))
    failures = 0
    for label, doctor, expect in cases:
        b = copy.deepcopy(base)
        doctor(b)
        try:
            problems, _ = compare(base, b, spec)
            caught = "flag" if problems else None
        except Refuse:
            caught = "refuse"
        status = "ok" if caught == expect else "FAIL"
        failures += caught != expect
        print(f"self-test {status}: {label} -> {caught or 'passed'} "
              f"(want {expect or 'passed'})")
    print("self-test: " + ("passed" if not failures else
                           f"{failures} case(s) failed"))
    return 0 if not failures else 1


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare_mode(argv[1:])
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run this one workload once; the last output line is "
                        "its JSON result")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per run (default: BENCHMARK.json's)")
    p.add_argument("--trace", nargs="?", const="1", default=None,
                   help="0|1 with --workload; alone adds one traced run "
                        "per workload")
    p.add_argument("--runs", type=int, default=1,
                   help="untraced runs per workload, seeds seed..seed+runs-1")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.workload:
            return single_mode(args)
        args.trace = args.trace not in (None, "0")
        return full_mode(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
