#!/usr/bin/env python3
"""Load JSON artifacts with python's strict parser, independent of ours.

Every argument is a file holding one JSON document. `NaN`, `Infinity` and
`-Infinity` are refused, as are raw control characters inside strings, so
a writer that emits either fails here.

    python3 .github/strict_json.py target/reports/*.json target/plans/*.json
"""
import json
import sys


def refuse(constant):
    raise ValueError(f"non-JSON constant {constant}")


def main(paths):
    if not paths:
        print("strict_json.py: no files given", file=sys.stderr)
        return 1
    failed = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                json.loads(f.read(), parse_constant=refuse)
        except ValueError as e:
            print(f"{path}: {e}", file=sys.stderr)
            failed += 1
    print(f"{len(paths) - failed} of {len(paths)} files are strict JSON")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
