"""Summarise run.py results files into one BENCH file.

    python3 bench/collect.py OUT.json [RESULTS.json ...]

With no results files named, it reads every file in .bench_work/results/.
For each workload it reports, per end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
over the untraced runs. It also reports the median of each per-layer metric
over the traced runs. Smoke runs are skipped.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def _values(runs: list[dict], metric: str) -> list:
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def _units(runs: list[dict]) -> dict[str, str]:
    return {m: e["unit"] for m, e in runs[0]["result"]["metrics"].items()} if runs else {}


def _median_known(values: list) -> float | None:
    """Median of the values that are not None (a missing wrap target prints null)."""
    known = [v for v in values if v is not None]
    return statistics.median(known) if known else None


def collect(records: list[dict]) -> dict:
    by_workload = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    out = {"environment": records[0]["environment"], "workloads": {}}
    for name, recs in by_workload.items():
        untraced = [r for r in recs if not r["trace"]]
        traced = [r for r in recs if r["trace"]]
        out["workloads"][name] = {
            "seconds": recs[0]["seconds"],
            "runs": len(untraced),
            "traced_runs": len(traced),
            "seeds": [r["seed"] for r in untraced],
            "all_correct": all(r["result"]["correct"] for r in recs),
            "end_to_end": {
                m: {"unit": u, **summary(_values(untraced, m))} for m, u in _units(untraced).items()
            },
            "per_layer": {
                m: {"unit": u, "median": _median_known(_values(traced, m))}
                for m, u in _units(traced).items()
            },
        }
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = argv[1:] or sorted(glob.glob(os.path.join(root, ".bench_work", "results", "*.json")))
    records = [json.load(open(p)) for p in paths]
    records = [r for r in records if not r["smoke"]]
    if not records:
        print("no results to collect", file=sys.stderr)
        return 1
    with open(argv[0], "w") as fh:
        json.dump(collect(records), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
