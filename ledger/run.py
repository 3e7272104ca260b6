#!/usr/bin/env python3
"""Repository benchmark: builds bdps_ledger from the checkout and runs one workload.

    python3 ledger/run.py --workload paper --seed 1 --seconds 15 --trace 0
    python3 ledger/run.py --self-check

The build goes to $CARGO_TARGET_DIR (default .bench_build) inside the
checkout.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report (output checks, notes, host fingerprint).  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.  An
untraced run is split into several processes run one after the other (see
PARTS); each metric is the median over them.
--self-check runs every workload in both modes at tiny sizes with all output
checks on and verifies the reported metric names and units.
"""

import argparse
import functools
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "ledger")
# Every process of one run must end within this many seconds in total.
RUN_TIMEOUT_S = 170
SELF_CHECK_SECONDS = 1.0

# An untraced run is split into this many processes, run one after the
# other, each measuring its share of --seconds.  Within one process every
# pass shares one memory placement and a few seconds of host state; on a
# shared host either moves a whole process's timings by 20-30%, so samples
# from one process are not independent.  A live_cluster process serves
# whole rounds of four worlds, so it gets fewer.  The traced run is one
# process.
PARTS = {"live_cluster": 2}
DEFAULT_PARTS = 4

# Dependency rule (see ledger/README.md): the benchmark drives the program
# only through experiment/ entry points and the public layer calls it names.
# It sets no engine or tuning knob, never constructs an engine directly and
# reads no internal fabric statistics or kernel names, because those are
# slated for removal and later changes may not edit the benchmark.
FORBIDDEN = [
    r"\bsharded_matching\b",
    r"\bmatch_covering\b",
    r"\bMatchEngine\b",
    r"\bmatch_shards\b",
    r"\bmatch_promote_rows\b",
    r"\bmatch_compile_hot_hits\b",
    r"\bcovering\s*=",
    r"\bengine\s*=",
    r"BDPS_SIMD_KERNEL",
    r"\b(Parallel)?Simulator\b",
    r"sim/simulator\.h",
    r"sim/parallel/",
    r"\bMatchFabric\b",
    r"\bmatch_fabric\s*\(",
    r"matching/program/",
    r"\bsimd",
    r"kernel_name",
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def dependency_violations():
    found = []
    src = os.path.join(LEDGER, "src")
    for name in sorted(os.listdir(src)):
        with open(os.path.join(src, name), encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                for pattern in FORBIDDEN:
                    if re.search(pattern, line):
                        found.append(f"ledger/src/{name}:{number}: {pattern}")
    return found


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds bdps_ledger; returns its path or None."""
    out = build_dir()
    steps = []
    configured = os.path.exists(os.path.join(out, "CMakeCache.txt")) and any(
        os.path.exists(os.path.join(out, name))
        for name in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", LEDGER, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "bdps_ledger",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"ledger: build step failed: {error}")
            return None
        if done.returncode != 0:
            log(f"ledger: build step failed: {' '.join(step)}")
            return None
    return os.path.join(out, "bdps_ledger")


@functools.lru_cache(maxsize=None)
def git_commit():
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown (not a git checkout)"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"


@functools.lru_cache(maxsize=None)
def source_digest():
    """sha256 over the library and benchmark sources and build files."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "ledger"):
        for directory, _, names in os.walk(os.path.join(ROOT, top)):
            files.extend(os.path.join(directory, n) for n in names)
    for path in sorted(files):
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_binary(binary, workload, seed, seconds, trace, scale, spans_path,
               part, timeout):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", scale, "--part", str(part), "--spans", spans_path,
               "--git-commit", git_commit(),
               "--source-digest", source_digest()]
    env = dict(os.environ)
    env.pop("BDPS_SIMD_KERNEL", None)
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"ledger: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"ledger: bdps_ledger exited with {done.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("ledger: unreadable report")
        return None


def merge_parts(reports, workload):
    """One report from the processes of a run: each metric is the median
    over the processes that report it, checks and notes are kept per
    process, and the simulator workloads must give bit-identical results in
    every process."""
    merged = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(int(r["attempted"]) for r in reports),
        "failed": sum(int(r["failed"]) for r in reports),
        "metrics": {},
        "checks": [],
        "notes": {"parts": len(reports)},
        "fingerprint": dict(reports[0]["fingerprint"], part=None),
    }
    for part, report in enumerate(reports):
        merged["checks"] += [dict(c, name=f"part {part}: {c['name']}")
                             for c in report["checks"]]
        merged["notes"].update({f"part {part}: {key}": value
                                for key, value in report["notes"].items()})
    names = sorted({name for r in reports for name in r["metrics"]})
    for name in names:
        entries = [r["metrics"][name] for r in reports if name in r["metrics"]]
        merged["metrics"][name] = {
            "value": statistics.median(e["value"] for e in entries),
            "unit": entries[0]["unit"]}
    if workload != "live_cluster" and len(reports) > 1:
        keys = ("earning_ratio", "delivery_rate")
        outcomes = {(r["notes"].get("result_digest"),) +
                    tuple(r["metrics"][k]["value"] for k in keys)
                    for r in reports}
        same = len(outcomes) == 1
        merged["checks"].append({
            "name": "results_repeat_bitwise_across_processes", "ok": same,
            "detail": f"{len(reports)} processes compared"})
        merged["correct"] = merged["correct"] and same
    if not merged["correct"]:
        merged["failed"] = merged["attempted"]
    return merged


def run_parts(binary, workload, seed, seconds, trace, scale, spans_prefix):
    """Runs the workload in its processes; the merged report or None."""
    parts = 1 if trace else PARTS.get(workload, DEFAULT_PARTS)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    reports = []
    for part in range(parts):
        timeout = max(1.0, deadline - time.monotonic())
        report = run_binary(binary, workload, seed, seconds / parts, trace,
                            scale, f"{spans_prefix}-part{part}.json", part,
                            timeout)
        if report is None:
            return None
        reports.append(report)
    return merge_parts(reports, workload)


def metric_errors(report, spec, trace):
    """Names/units the report must carry for this mode, per BENCHMARK.json."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = report["metrics"]
    errors = []
    for metric in wanted:
        entry = got.get(metric["name"])
        if entry is None:
            errors.append(f"missing metric {metric['name']}")
        elif entry["unit"] != metric["unit"]:
            errors.append(f"{metric['name']}: unit {entry['unit']} != "
                          f"{metric['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    errors.extend(f"unexpected metric {name}" for name in sorted(extra))
    return errors


def result_line(report, spec, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: report["metrics"][m["name"]] for m in wanted},
    }


def self_check(binary, spec):
    ok = True
    os.makedirs(build_dir(), exist_ok=True)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            spans = os.path.join(build_dir(), f"self-check-{workload}-{trace}")
            report = run_parts(binary, workload, 1, SELF_CHECK_SECONDS, trace,
                               "tiny", spans)
            if report is None:
                log(f"self-check {workload} trace={trace}: no report")
                ok = False
                continue
            problems = metric_errors(report, spec, trace)
            problems += [f"check failed: {c['name']} {c.get('detail', '')}"
                         for c in report["checks"] if not c["ok"]]
            if report["attempted"] < 1:
                problems.append("nothing attempted")
            status = "ok" if not problems else "FAILED"
            log(f"self-check {workload} trace={trace}: {status}")
            for problem in problems:
                log(f"  {problem}")
            ok = ok and not problems
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--binary", help="use this bdps_ledger, do not build")
    args = parser.parse_args()

    violations = dependency_violations()
    if violations:
        log("ledger: the benchmark sources break the dependency rule:")
        for violation in violations:
            log(f"  {violation}")
        return 2
    binary = args.binary or build()
    if binary is None:
        return 3
    spec = load_spec()
    if args.self_check:
        return 0 if self_check(binary, spec) else 1

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"ledger: --workload must be one of {names}")
        return 2
    spans_dir = os.path.join(build_dir(), "ledger-spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}")
    report = run_parts(binary, args.workload, args.seed, args.seconds,
                       args.trace, "full", spans)
    if report is None:
        return 4
    errors = metric_errors(report, spec, args.trace)
    if errors:
        for error in errors:
            log(f"ledger: {error}")
        return 5
    for check in report["checks"]:
        if not check["ok"]:
            log(f"ledger: output check failed: {check['name']} "
                f"{check.get('detail', '')}")
    print(json.dumps(report), flush=True)
    print(json.dumps(result_line(report, spec, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
