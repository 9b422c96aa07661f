#!/usr/bin/env python3
"""Self-test of the benchmark: one tiny run (--seconds 0, one cycle) per case.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  1. every workload prints every metric named in BENCHMARK.json, with
     its unit, untraced and traced, with correct true and no failed
     operation except fleet DTLS learns (a known Service defect, see
     README.md);
  2. an injected wrong golden model is counted as a failed operation
     (ok_ops_pct below 100) and does not abort the run;
  3. the traced-versus-untraced counter guard fires when the traced
     run's equivalence-oracle settings are perturbed;
  4. outside a repository checkout (only BENCHMARK.json and perfbench/)
     the benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra, cwd="."):
    cmd = [sys.executable, os.path.join(os.path.abspath("perfbench"), "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    result = None
    if p.returncode == 0:
        result = json.loads(p.stdout.strip().splitlines()[-1])
    return p, result


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def units(key):
    return {m["name"]: m["unit"] for m in SPEC[key]}


def unexpected_failures(stderr):
    """Failed operations other than the fleet DTLS learns that Service's
    generic equivalence oracle sometimes gets wrong (README.md)."""
    failed = re.findall(r"^perfbench: failed: (.*)$", stderr, re.M)
    return [f for f in failed
            if not re.match(r"dtls \(seed \d+\): fleet model differs", f)]


def main():
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p, r = bench(w, trace)
            check(r is not None, "%s trace=%d runs (%s)" % (w, trace, p.stderr[-300:].strip()))
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == units(key), "%s trace=%d prints every %s metric with its unit" % (w, trace, key))
            bad = unexpected_failures(p.stderr)
            check(r["correct"] and not bad,
                  "%s trace=%d: no unexpected failed operation %s" % (w, trace, bad[:3]))

        p, r = bench(w, 0, "--wrong-golden")
        check(r is not None, "%s: a wrong golden does not abort the run" % w)
        check(len(unexpected_failures(p.stderr)) >= 1
              and r["metrics"]["ok_ops_pct"]["value"] < 100,
              "%s: a wrong golden is counted as failed (%d of %d)" % (w, r["failed"], r["attempted"]))

    for w in ("learn-stack", "learn-model"):
        p, r = bench(w, 1, "--perturb-eq")
        check(r is not None and not r["correct"] and "guard" in p.stderr,
              "%s: perturbed eq settings trip the traced-vs-untraced guard" % w)

    bare = os.path.join(".perfbench-out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    p, r = bench(WORKLOADS[0], 0, cwd=bare)
    check(p.returncode != 0 and p.stdout.strip() == "",
          "outside a checkout the benchmark exits %d without a result" % p.returncode)
    shutil.rmtree(bare)
    print("selftest passed")


if __name__ == "__main__":
    main()
