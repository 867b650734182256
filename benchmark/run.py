#!/usr/bin/env python3
"""Census + service benchmark: build the harness, run workloads, check them.

Run from the repository root:

    python3 benchmark/run.py [--workload W ...] [--seed N] [--seconds S]
                             [--trace [0|1]] [--quick] [--out PATH]
                             [--update-golden]

Each workload runs a fixed count, the same on every commit, sized to about
`run_seconds` of BENCHMARK.json; --seconds, when given, must equal it.
Each workload runs in its own process (benchmark/build/rfid_bench). Every
metric is printed as `workload metric value unit`, the run is appended to
the results file (default benchmark/build/results.json, the input of
benchmark/compare.py), and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end_to_end ones of BENCHMARK.json, with --trace 1 the per_layer ones;
a traced run also writes benchmark/build/trace.json. Exits nonzero when a
correctness check fails, the build fails, or a workload does not finish.
"""

import argparse
import datetime
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
HARNESS = BUILD / "rfid_bench"
GOLDEN = HERE / "golden"
DEFAULT_SEED = 20100913
BUILD_TIMEOUT_S = 850
WORKLOAD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and leaves nothing running: the
    group is killed on timeout or when this script is stopped."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", HARNESS.name])
    for cmd in steps:
        code, _ = run_bounded(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def golden_check(workload, digests, update):
    path = GOLDEN / f"{workload}.digest"
    if update:
        path.write_text("".join(d + "\n" for d in digests))
        return {"name": "golden_digests", "ok": True,
                "detail": f"wrote {len(digests)} digests"}
    want = path.read_text().split() if path.is_file() else []
    n = min(len(want), len(digests))
    ok = n > 0 and want[:n] == digests[:n]
    return {"name": "golden_digests", "ok": ok,
            "detail": f"{n} digests compared with {path.name}"}


def run_workload(workload, args):
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(args.seed),
           "--trace", str(args.trace),
           "--trace-out", str(BUILD / f"trace-{workload}.json")]
    if args.quick:
        cmd.append("--quick")
    code, out = run_bounded(cmd, WORKLOAD_TIMEOUT_S, stdout=subprocess.PIPE,
                            text=True)
    lines = [line for line in out.splitlines() if line.strip()]
    if code != 0 or not lines:
        raise RuntimeError(f"{workload}: harness exited with code {code}")
    result = json.loads(lines[-1])
    measured = {m["name"] for m in result["metrics"]}
    missing = [m["name"] for m in args.spec[args.group]
               if m["name"] not in measured]
    if missing:
        raise RuntimeError(
            f"{workload}: harness reports no {', '.join(missing)}")
    if args.seed == DEFAULT_SEED:
        result["checks"].append(
            golden_check(workload, result["digests"], args.update_golden))
    result["correct"] = all(c["ok"] for c in result["checks"])
    return result


def merge_traces(workloads):
    events = []
    for pid, workload in enumerate(workloads, start=1):
        part = BUILD / f"trace-{workload}.json"
        for event in json.loads(part.read_text())["traceEvents"]:
            event["pid"] = pid
            events.append(event)
        part.unlink()
    path = BUILD / "trace.json"
    path.write_text(json.dumps({"displayTimeUnit": "ns",
                                "traceEvents": events}))
    return path


def append_run(path, record):
    runs = json.loads(path.read_text())["runs"] if path.is_file() else []
    runs.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def fmt(value):
    return "n/a" if value is None else repr(value)


def main():
    # SIGTERM unwinds like an exception, so run_bounded kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="must equal run_seconds of BENCHMARK.json: the "
                             "counts are fixed and sized to it")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="per-layer traced run")
    parser.add_argument("--quick", action="store_true",
                        help="about 2%% of every count, all checks on")
    parser.add_argument("--out", type=Path, default=BUILD / "results.json",
                        help="results file this run is appended to")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite benchmark/golden/ (default seed only)")
    args = parser.parse_args()
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be {spec['run_seconds']}: every "
                     "workload runs a fixed count")
    if args.update_golden and args.seed != DEFAULT_SEED:
        parser.error("golden digests are defined at the default seed")
    workloads = args.workload or names
    args.spec = spec
    args.group = "per_layer" if args.trace else "end_to_end"

    try:
        build()
        results = {w: run_workload(w, args) for w in workloads}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"run.py: {e}")
        return 1

    gated = {m["name"] for m in spec[args.group]}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w, r in results.items():
        for m in r["metrics"]:
            notes = ([f"n={m['n']}"] if m["n"] else []) + (
                [] if m["name"] in gated else ["not gated"])
            note = f"  ({', '.join(notes)})" if notes else ""
            print(f"{w} {m['name']} {fmt(m['value'])} {m['unit']}{note}")
            if m["name"] in gated:
                key = m["name"] if len(results) == 1 else f"{w}/{m['name']}"
                summary["metrics"][key] = {"value": m["value"],
                                           "unit": m["unit"]}
        for c in r["checks"]:
            print(f"{w} check {c['name']} {'ok' if c['ok'] else 'FAIL'}"
                  f"  ({c['detail']})")
        summary["correct"] = summary["correct"] and r["correct"]
        summary["attempted"] += r["attempted"]
        summary["failed"] += r["failed"]

    if args.trace:
        print(f"trace written to {merge_traces(workloads)}")
    append_run(args.out, {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": args.seed, "trace": args.trace,
        "quick": args.quick,
        "workloads": {w: {"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"], "checks": r["checks"],
                          "metrics": {m["name"]: {"value": m["value"],
                                                  "unit": m["unit"],
                                                  "n": m["n"]}
                                      for m in r["metrics"]}}
                      for w, r in results.items()}})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
