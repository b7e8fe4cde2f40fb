#!/usr/bin/env python3
"""Gate the noise-free counts of a traced `bwb-perf --quick` run.

Runs every workload of BENCHMARK.json once with `--quick --seed 1 --trace 1`
and compares the exact-count metrics (the `EXACT` list in perf/src/aa.rs:
bytes and loops per step, messages, colours, certificates, flop/byte) with
.github/exact_counts.json. A missing or differing value fails, so a lost
certificate or an extra message per step fails on any host.

    python3 .github/exact_counts.py           # check
    python3 .github/exact_counts.py --write   # record after an intended change
"""
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
COUNTS = ROOT / ".github" / "exact_counts.json"


def exact_keys():
    src = (ROOT / "perf" / "src" / "aa.rs").read_text()
    body = re.search(r"const EXACT: \[&str; \d+\] = \[(.*?)\];", src, re.S).group(1)
    return re.findall(r'"([^"]+)"', body)


def workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in bench["workloads"]]


def measure(workload, keys):
    cmd = [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", str(ROOT / "perf" / "Cargo.toml"), "--",
        "--workload", workload, "--quick", "--seed", "1", "--trace", "1",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    values = {}
    for line in out.splitlines():
        name, sep, rest = line.partition(" = ")
        if sep and name in keys:
            values[name] = float(rest.split()[0])
    return values


def main():
    keys = exact_keys()
    measured = {w: measure(w, keys) for w in workloads()}
    if sys.argv[1:] == ["--write"]:
        COUNTS.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"wrote {COUNTS.relative_to(ROOT)}")
        return 0
    expected = json.loads(COUNTS.read_text())
    differ = 0
    for w in sorted(set(expected) | set(measured)):
        for k in keys:
            want = expected.get(w, {}).get(k)
            got = measured.get(w, {}).get(k)
            same = want is not None and want == got
            differ += not same
            print(f"{w} {k}: expected {want} got {got}{'' if same else '  DIFFERS'}")
    print(f"{differ} differing value(s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
