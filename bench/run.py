#!/usr/bin/env python3
"""Benchmark of the paper's three pipelines, run through the cyclia CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src``.

``--trace 0`` runs the workload as a user does: set-up is timed in fresh
interpreters, then whole rounds of fresh ``python3 -m cyclia.cli`` processes
run back to back until ``--seconds`` have passed (at least one round).  Every
artifact is checked against the oracles and the paper's verdicts.  Prints
the end-to-end metrics.

``--trace 1`` runs one untraced round and then the same operations traced in
one process (``tracing.py``), checks both, and prints the per-layer metrics
with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".bench_runs"
SETUP_REPEATS = 3
OP_TIMEOUT = 120.0
RUN_BUDGET = 150.0      # no new round starts that could end past this
OP_DEADLINE = 170.0     # every process is killed by then; a run must end by 180
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_CODE = (
    "import json, sys\n"
    "import cyclia.cli as cli\n"
    "for spec in json.loads(sys.argv[1]):\n"
    "    cli.build_measure(spec, cli.RunConfig(command='check', spec=spec))\n"
)


@dataclass
class Proc:
    code: int | None
    seconds: float
    rss_mb: float
    cpu_s: float
    stdout: str = ""


def spawn(cmd, env, timeout, log_path) -> Proc:
    """Run cmd to completion, reaping it with wait4 for its own rusage."""
    with open(log_path + ".out", "w") as out, open(log_path + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - t0
    with open(log_path + ".out") as fh:
        stdout = fh.read()
    return Proc(None if expired.is_set() else proc.returncode, seconds,
                usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                stdout)


def cyclia_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup(work, env, rdir) -> list:
    times = []
    for i in range(SETUP_REPEATS):
        p = spawn([sys.executable, "-c", SETUP_CODE, json.dumps(work.specs)],
                  env, OP_TIMEOUT, os.path.join(rdir, f"setup{i}"))
        if p.code != 0:
            with open(os.path.join(rdir, f"setup{i}.err")) as fh:
                sys.stderr.write(fh.read())
            raise SystemExit("set-up failed: cannot import cyclia.cli from "
                             "src or build the workload's measures")
        times.append(p.seconds)
    return times


def check_op(op, code, stdout, out) -> tuple[bool, list]:
    """(crashed, problems) for one operation; it succeeded when both are empty.

    A crash is a timeout, an exception or an exit code other than 0 and 1
    (2 is a usage error); a wrong verdict or artifact is a problem.
    """
    if code is None:
        return True, ["timed out or raised"]
    if code not in (0, 1):
        return True, [f"exit code {code}"]
    probs = [] if code == op.expect_exit else [
        f"exit code {code}, the paper predicts {op.expect_exit}"]
    return False, probs + op.check(out, stdout)


def untraced_round(work, env, rdir, deadline):
    """Run the workload's operations back to back in fresh processes."""
    procs = []
    t0 = time.perf_counter()
    for i, op in enumerate(work.ops):
        out = os.path.join(rdir, f"op{i}")
        timeout = max(1.0, min(OP_TIMEOUT, deadline - time.perf_counter()))
        procs.append(spawn([sys.executable, "-m", "cyclia.cli", *op.argv,
                            "--out", out], env, timeout, out))
    wall = time.perf_counter() - t0
    outcomes = [check_op(op, p.code, p.stdout, os.path.join(rdir, f"op{i}"))
                for i, (op, p) in enumerate(zip(work.ops, procs))]
    return wall, procs, outcomes


def tally(label, work, outcomes) -> tuple[bool, int]:
    """(no wrong output, operations failed) over (crashed, problems) pairs."""
    failed, correct = 0, True
    for op, (crashed, probs) in zip(work.ops, outcomes):
        if crashed or probs:
            failed += 1
            if not crashed:  # it ran to its end and wrote a wrong answer
                correct = False
            for pr in probs[:5]:
                print(f"  FAILED {label} {op.label}: {pr}", file=sys.stderr)
    return correct, failed


def dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(base, f))
               for base, _, files in os.walk(path) for f in files)


def run_untraced(work, env, rdir, seconds, started):
    setup = measure_setup(work, env, rdir)
    walls, rss, cpu, op_seconds = [], [], [], []
    attempted = failed = 0
    correct = True
    t_measure = time.perf_counter()
    while True:
        k = len(walls)
        round_dir = os.path.join(rdir, f"round{k}")
        os.makedirs(round_dir)
        wall, procs, outcomes = untraced_round(
            work, env, round_dir, started + OP_DEADLINE)
        walls.append(wall)
        rss.append(max(p.rss_mb for p in procs))
        cpu.append(sum(p.cpu_s for p in procs))
        op_seconds.append([p.seconds for p in procs])
        attempted += len(work.ops)
        ok, nfail = tally(f"round {k}", work, outcomes)
        correct &= ok
        failed += nfail
        if not nfail:
            shutil.rmtree(round_dir)
        now = time.perf_counter()
        if now - t_measure >= seconds or now + wall > started + RUN_BUDGET:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"{work.name}: {len(walls)} round(s) of {len(work.ops)} cyclia "
          f"process(es); round wall s {[round(w, 3) for w in walls]}; "
          f"set-up s {[round(s, 3) for s in setup]}")
    for op, secs in zip(work.ops, zip(*op_seconds)):
        print(f"  {op.label}: median {statistics.median(secs):.3f} s")
    print(f"  cpu_s (reference, not bounded): median "
          f"{statistics.median(cpu):.3f} per round")
    for key, value in metrics.items():
        print(f"  {key} = {value:.4f} {E2E_UNITS[key]}")
    print(f"  attempted {attempted}, failed {failed}")
    return (correct, attempted, failed,
            {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()})


def check_ring_samples(work, samples) -> list:
    """Compare herglotz_ring samples from the traced run with the workload's
    scalar Herglotz oracle."""
    if work.ring_oracle is None:
        return []
    probs = []
    for s in samples:
        z = [s["r"] * cmath.exp(2j * math.pi * (k + s["offset"]) / s["m"])
             for k in s["k"]]
        for k, re, im, want in zip(s["k"], s["re"], s["im"], work.ring_oracle(z)):
            if abs(complex(re, im) - want) > 1e-9 * max(1.0, abs(want)):
                probs.append(f"herglotz_ring r={s['r']} m={s['m']} k={k}: "
                             f"{complex(re, im)} != scalar {want}")
    return probs


def run_traced(work, env, rdir, started):
    base_dir = os.path.join(rdir, "untraced")
    os.makedirs(base_dir)
    wall_untraced, _, outcomes = untraced_round(
        work, env, base_dir, started + OP_DEADLINE)
    correct, failed = tally("untraced", work, outcomes)

    trace_dir = os.path.join(rdir, "traced")
    os.makedirs(trace_dir)
    ops = [{"argv": op.argv, "out": os.path.join(trace_dir, f"op{i}")}
           for i, op in enumerate(work.ops)]
    ops_path = os.path.join(trace_dir, "ops.json")
    result_path = os.path.join(trace_dir, "result.json")
    with open(ops_path, "w") as fh:
        json.dump(ops, fh)
    child = spawn([sys.executable, os.path.join(BENCH_DIR, "tracing.py"),
                   ops_path, result_path], env,
                  max(1.0, started + OP_DEADLINE - time.perf_counter()),
                  os.path.join(trace_dir, "child"))
    if child.code != 0:
        with open(os.path.join(trace_dir, "child.err")) as fh:
            sys.stderr.write(fh.read())
        raise SystemExit("the traced run did not complete")
    with open(result_path) as fh:
        result = json.load(fh)
    outcomes = []
    for op, r, o in zip(work.ops, result["ops"], ops):
        if r["raised"]:
            print(r["raised"], file=sys.stderr)
        outcomes.append(check_op(op, r["exit"], r["stdout"], o["out"]))
    ok, nfail = tally("traced", work, outcomes)
    correct &= ok
    failed += nfail
    ring_problems = check_ring_samples(work, result["ring_samples"])
    for pr in ring_problems:
        print(f"  FAILED ring spot check: {pr}", file=sys.stderr)

    metrics = tracing.layer_metrics(result["spans"])
    metrics["cli.artifact_bytes"] = sum(dir_bytes(o["out"]) for o in ops)
    metrics["trace.overhead_s"] = child.seconds - wall_untraced
    print(f"{work.name}: traced {child.seconds:.3f} s in one process, untraced "
          f"{wall_untraced:.3f} s in {len(work.ops)} fresh process(es); "
          f"{len(result['spans'])} spans; "
          f"{len(result['ring_samples'])} ring(s) spot-checked against the "
          f"scalar Herglotz oracle")
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]:.6g} {tracing.UNITS[key]}")
    return (correct and not ring_problems, 2 * len(work.ops), failed,
            {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in metrics.items()})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    started = time.perf_counter()
    if not os.path.isfile(os.path.join("src", "cyclia", "cli.py")):
        print("error: run from the root of a cyclia checkout (no src/cyclia)",
              file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload](args.seed)
    for key, value in work.notes.items():
        print(f"{work.name} seed {args.seed}: oracle {key} {value:.6g}")
    rdir = os.path.join(RUNS_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(rdir)
    env = cyclia_env()
    if args.trace:
        correct, attempted, failed, metrics = run_traced(work, env, rdir, started)
    else:
        correct, attempted, failed, metrics = run_untraced(
            work, env, rdir, args.seconds, started)
    if args.trace:
        print(f"spans: {os.path.join(rdir, 'traced', 'result.json')}")
    elif correct and not failed:
        shutil.rmtree(rdir)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
