#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload learn-stack --seed 1 --seconds 10 --trace 0

The program (perfbench/perfbench.ml) is built with dune into ./_build,
with dune's shared cache disabled so nothing is written outside the
checkout. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; with --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics. Traced runs also write their first spans to
.perfbench-out/. Any extra arguments are passed to the program (the
self-test uses --wrong-golden and --perturb-eq).

Exits non-zero without printing a result when the build fails, the
program fails, or its output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env, capture):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("%s timed out after %ds" % (cmd[0], timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("unexpected result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        die("attempted must be a whole number >= 1")
    want = expected_metrics(trace)
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing or extra:
        die("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    for name, unit in want.items():
        m = got[name]
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            die("metric %s: expected a number in %s, got %r" % (name, unit, m))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    for f in ("dune-project", "BENCHMARK.json", os.path.join("perfbench", "dune")):
        if not os.path.isfile(f):
            die("%s not found: run from the root of a repository checkout" % f)
    if not os.path.isdir("lib"):
        die("lib/ not found: the benchmark builds the library from source")

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S, env, capture=False,
    )
    if code != 0:
        die("build failed (exit %d)" % code)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(".perfbench-out", exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            ".perfbench-out", "%s-seed%d.spans.tsv" % (args.workload, args.seed))]
    code, out = run(cmd + extra, RUN_TIMEOUT_S, env, capture=True)
    if code != 0:
        die("perfbench.exe failed (exit %d)" % code)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        die("perfbench.exe printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("last line is not JSON: %r" % lines[-1][:200])
    validate(result, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
