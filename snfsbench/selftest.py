#!/usr/bin/env python3
"""The benchmark's own test: python3 snfsbench/selftest.py

Builds the driver (as run.py does), then runs every workload at --size smoke:
twice untraced and once traced, all with the same seed. It checks that:

- every run passes the correctness gate and exits 0;
- the result line has exactly the keys the benchmark contract names, and its
  metrics are exactly BENCHMARK.json's end-to-end metrics (--trace 0) or
  per-layer metrics (--trace 1), with the declared units;
- the printed table names every declared metric with its unit and a clock;
- the three runs print the same virtual fingerprint: same-seed runs repeat
  exactly and recording a trace schedules no events;
- a bad argument exits with status 2 and prints no result.

Exits 0 when all checks pass, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

import run

TABLE_ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(host|virtual)$")
FINGERPRINT = re.compile(r"^fingerprint (\S+) ([0-9a-f]{16})$")


def load_contract():
    with open(os.path.join(run.REPO_ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    e2e = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in contract["per_layer"]}
    return [w["name"] for w in contract["workloads"]], e2e, layers


def run_driver(binary, workload, trace):
    args = ["--workload", workload, "--seed", str(run.DEFAULT_SEED), "--seconds", "0",
            "--trace", trace, "--size", "smoke"]
    proc = subprocess.run([binary] + args, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_run(workload, trace, code, lines, declared, failures):
    label = "%s --trace %s" % (workload, trace)

    def fail(message):
        failures.append("%s: %s" % (label, message))

    if code != 0:
        fail("exit status %d" % code)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("gate: correct=%s attempted=%s failed=%s" %
             (result["correct"], result["attempted"], result["failed"]))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        fail("result metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            sorted(set(declared) - set(got)), sorted(set(got) - set(declared)),
            sorted(n for n in got if n in declared and got[n] != declared[n])))
    table = {}
    fingerprint = None
    for line in lines[:-1]:
        row = TABLE_ROW.match(line)
        if row:
            table[row.group(1)] = row.group(3)
        fp = FINGERPRINT.match(line)
        if fp and fp.group(1) == workload:
            fingerprint = fp.group(2)
    for name, unit in declared.items():
        if table.get(name) != unit:
            fail("table row for %s: unit %s, want %s" % (name, table.get(name), unit))
    if fingerprint is None:
        fail("no fingerprint line")
    return fingerprint


def main():
    workloads, e2e, layers = load_contract()
    binary = run.build()
    failures = []
    for workload in workloads:
        prints = []
        for trace in ("0", "0", "1"):
            code, lines = run_driver(binary, workload, trace)
            declared = layers if trace == "1" else e2e
            prints.append(check_run(workload, trace, code, lines, declared, failures))
        if len(set(prints)) != 1:
            failures.append("%s: fingerprints differ across same-seed runs: %s" %
                            (workload, prints))
        print("%-14s fingerprint %s" % (workload, prints[0]))

    bad = subprocess.run([binary, "--workload", "no_such_workload"], capture_output=True,
                         text=True)
    if bad.returncode != 2 or bad.stdout.strip().endswith("}"):
        failures.append("bad argument: exit %d, stdout %r" % (bad.returncode, bad.stdout))

    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
