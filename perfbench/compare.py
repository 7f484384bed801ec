"""Compare two sets of benchmark records, refusing mismatched environments.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by ``run.py`` (by default into
``perfbench/.work/results/``; copy that directory aside between the two
commits).  For every workload and mode present on both sides it prints
each metric's median per side; runs of different workload seeds simulate
different programs and are never pooled.  An end-to-end metric is
``unresolved`` when the base runs' quartile spread exceeds its ``bound``
in ``BENCHMARK.json``, and a regression (exit status 1) when its median
got worse by more than the bound.  Refused outright (exit status 2):
records that failed their correctness check, whose timings measure a
different simulation, and records whose environment fingerprints differ
(Python, core count, jit availability, kernel source, backend
resolution) -- a host without a C compiler runs the CMP sweep ~20x
slower, and that must not read as a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

Records = Dict[Tuple[str, str, int], List[dict]]


def load(directory: Path) -> Records:
    """Records grouped by ``(workload, workload_seed, trace)``."""
    groups: Records = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        record["path"] = str(path)
        key = (record["workload"], record["workload_seed"], record["trace"])
        groups.setdefault(key, []).append(record)
    return groups


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark records.")
    parser.add_argument("base", type=Path, help="directory of records from the parent commit")
    parser.add_argument("new", type=Path, help="directory of records from the change")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    invalid = [
        record["path"]
        for side in (base, new)
        for records in side.values()
        for record in records
        if not record["correct"]
    ]
    if invalid:
        print("refusing to compare: these runs failed their correctness check:", file=sys.stderr)
        for path in invalid:
            print(f"  {path}", file=sys.stderr)
        return 2
    fingerprints = {
        json.dumps(record["fingerprint"], sort_keys=True)
        for side in (base, new)
        for records in side.values()
        for record in records
    }
    if len(fingerprints) > 1:
        print("refusing to compare: the environment fingerprints differ:", file=sys.stderr)
        for fingerprint in sorted(fingerprints):
            print(f"  {fingerprint}", file=sys.stderr)
        return 2
    declared = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    regressed = False
    for key in sorted(set(base) & set(new)):
        print(
            f"{key[0]} (workload seed {key[1]}, trace {key[2]}): "
            f"{len(base[key])} base / {len(new[key])} new runs"
        )
        for name in base[key][0]["metrics"]:
            before = [record["metrics"][name] for record in base[key]]
            after = [record["metrics"][name] for record in new[key]]
            old, now = statistics.median(before), statistics.median(after)
            line = f"  {name:28s} {old:12.5g} -> {now:12.5g}"
            metric = declared.get(name)
            if metric is not None and old:
                change = (now - old) / old
                worse = change if metric["better"] == "lower" else -change
                if spread(before) > metric["bound"]:
                    verdict = "unresolved"
                elif worse > metric["bound"]:
                    verdict = "REGRESSED"
                    regressed = True
                else:
                    verdict = "ok"
                line += f"  {change:+7.1%}  {verdict}"
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
