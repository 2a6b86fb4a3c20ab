"""Exit 1 unless every condition holds for one JSON line of `bench/run.py`.

    tail -n 1 bench.out | python3 .github/bench_verdict.py "r['failed'] == 0" ...

Each condition is a Python expression over `r`, the JSON object, and `m`,
its metric values by name (`m['x']` is `r['metrics']['x']['value']`).
Every condition that fails, or cannot be evaluated, is printed with the
values it read.
"""

import json
import sys


class _Reads(dict):
    """A dict that notes each key read and its value."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.reads.append(f"{key} = {value!r}")
        return value


def main(conditions) -> int:
    record = json.load(sys.stdin)
    failed = 0
    for cond in conditions:
        reads = []
        scope = {"r": _Reads(record, reads),
                 "m": _Reads({k: v["value"] for k, v in record.get("metrics", {}).items()},
                            reads)}
        try:
            ok = eval(cond, {"__builtins__": {}}, scope)
        except Exception as exc:  # a missing key or metric fails its condition
            ok = False
            reads.append(f"{type(exc).__name__}: {exc}")
        if not ok:
            failed += 1
            print(f"bench condition failed: {cond} ({'; '.join(reads)})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
