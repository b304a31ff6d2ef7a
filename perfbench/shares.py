"""Layer-share predictions, checked on the newest traced run of each workload.

    python3 perfbench/shares.py

Reads the ``--trace 1`` result files that ``run.py`` wrote under
``perfbench/out`` and prints each prediction with the values measured.  A
prediction that fails is reported as measured; it is not an error.
"""

from __future__ import annotations

import glob
import json
import os
import sys

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def newest_traced(workload: str) -> dict | None:
    records = []
    for path in glob.glob(os.path.join(OUT, f"result-{workload}-s*-t1-*.json")):
        with open(path) as fh:
            record = json.load(fh)
        if not record["toy"]:
            records.append(record)
    if not records:
        return None
    return max(records, key=lambda r: r["started"])["measured"]


def main() -> int:
    runs = {w: newest_traced(w) for w in ("exact-wide", "exact-deep", "compress-certify")}
    missing = [w for w, m in runs.items() if m is None]
    if missing:
        print(f"no traced run yet for: {', '.join(missing)}", file=sys.stderr)
        return 2
    wide, deep, comp = runs["exact-wide"], runs["exact-deep"], runs["compress-certify"]
    rows = [
        ("compression.build_greedy holds the most self time on compress-certify",
         comp["compression.build_greedy.self_rank"] == 1,
         f"rank {comp['compression.build_greedy.self_rank']:.0f}"),
        ("histories.expand.self_s is a larger share of wall_s on exact-deep than on exact-wide",
         deep["histories.expand.self_share"] > wide["histories.expand.self_share"],
         f"{deep['histories.expand.self_share']:.4f} vs "
         f"{wide['histories.expand.self_share']:.4f}"),
        ("exact_dp.generic_solve.self_s is a larger share of wall_s on exact-wide than on "
         "exact-deep",
         wide["exact_dp.generic_solve.self_share"] > deep["exact_dp.generic_solve.self_share"],
         f"{wide['exact_dp.generic_solve.self_share']:.4f} vs "
         f"{deep['exact_dp.generic_solve.self_share']:.4f}"),
    ]
    for text, holds, measured in rows:
        print(f"{'holds' if holds else 'FAILS'}: {text} ({measured})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
