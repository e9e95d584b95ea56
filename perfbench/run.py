#!/usr/bin/env python3
"""Builds the benchmark program and runs one workload (or all of them).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. `all` (the default) runs the workloads
BENCHMARK.json lists; `shared_fanin` runs only when named. Each workload
runs in a process of its own, so its memory and CPU figures are its own.
The program prints every metric it measured; this script prints them as
a table, then one JSON object holding the metrics BENCHMARK.json lists:
the end-to-end ones untraced (--trace 0), the per-layer ones traced
(--trace 1). A per-layer metric of a layer the workload does not run
through reads 0. The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 175
# Workloads that run by hand but not in BENCHMARK.json (see README.md).
EXTRA_WORKLOADS = ["shared_fanin"]
# Name prefixes of the per-layer metrics of layers a workload does not
# run through. These read 0; any other missing metric is an error.
NOT_RUN = {
    "smallfile_churn": ("rpc.", "xdr."),
    "shared_fanin": ("rpc.", "xdr."),
    "tcp_nfs": ("virtual_", "wan_", "client.", "proxy_client.", "proxy_server.", "store.", "netsim."),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the program from source; returns the executable's path."""
    for crate in ("xdr", "rpc", "netsim", "vfs", "nfs3", "server", "client", "core"):
        if not os.path.isfile(os.path.join(ROOT, "crates", crate, "Cargo.toml")):
            fail(f"crates/{crate} not found: run from a checkout of the repository")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST,
        "--message-format=json-render-diagnostics",
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    exe = None
    for line in proc.stdout.decode(errors="replace").splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("target", {}).get("name") == "perfbench":
            exe = msg.get("executable") or exe
    if proc.returncode != 0 or not exe:
        fail(f"build failed (cargo exit {proc.returncode})")
    return exe


def pin_to_one_cpu():
    """Runs the program on one CPU. The simulator runs one actor at a
    time, and on a shared machine the hand-offs between actor threads,
    or between TCP client and server threads, otherwise vary with how
    the host schedules the other CPUs."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def program_env():
    """One malloc arena: the simulator's actor threads otherwise each
    grow an arena of their own, and peak memory then depends on which
    threads happened to allocate."""
    env = dict(os.environ)
    env["MALLOC_ARENA_MAX"] = "1"
    return env


def run_workload(exe, name, args):
    """Runs one workload in its own process; returns its parsed result."""
    cmd = [
        exe, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(ROOT, "perfbench", "out", f"{name}.spans.csv")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if not lines:
        fail(f"{name} printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def contract_line(result, spec, trace):
    """The result line in the shape BENCHMARK.json's consumers read."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    not_run = NOT_RUN[result["workload"]] if trace else ()
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]["value"]
        elif m["name"].startswith(not_run):
            value = 0.0
        else:
            fail(f"metric {m['name']} missing from the {result['workload']} result")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = result["exit"] == 0 and result["failed"] == 0
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def print_table(result):
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"rounds {result['rounds']} ({result['timed_rounds']} timed untraced)")
    print(f"   op latency samples {result['samples']}; highest percentile with 10 beyond: "
          f"p{result['tail_percentile']} = {result['op_tail_us']} us")
    for name, m in result["metrics"].items():
        print(f"   {name:42s} {m['value']:>18.6g} {m['unit']}")
    for f in result["failures"]:
        print(f"   FAILED: {f}")


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    listed = [w["name"] for w in spec["workloads"]]

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload != "all" and args.workload not in listed + EXTRA_WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(listed + EXTRA_WORKLOADS)} or all")

    exe = build()
    ok = True
    for name in listed if args.workload == "all" else [args.workload]:
        result = run_workload(exe, name, args)
        print_table(result)
        line = contract_line(result, spec, args.trace)
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
