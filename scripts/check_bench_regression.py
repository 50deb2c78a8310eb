#!/usr/bin/env python3
"""Perf-regression gate over the bench --json record.

Usage: check_bench_regression.py BASELINE.json CURRENT.json

Compares rows matched by instance name across the sections below and
fails (exit 1) with a message naming the offending row when

  * throughput drops by more than 25% against the baseline, or
  * p99 recovery latency rises by more than 50% against the baseline.

Sections and the keys compared:

  churn          activations_per_sec (throughput), recovery_p99 (latency)
  explore_scale  serial throughput, configs / jobs1_seconds

The explore gate reads the serial leg: the jobs=4 leg oversubscribes a
small box (its wall clock measures the host's core count, not the code),
so serial throughput is the quantity a regression moves.

Rows present on only one side are reported and skipped — the gate only
judges matching rows — but an empty intersection is itself a failure:
it means the baseline predates the section and must be regenerated
(see HACKING.md, "Benchmarks").  Incomplete rows (complete=false, a
tripped --time-budget) are skipped: a truncated run measures the
budget, not the code.
"""

import json
import sys

THROUGHPUT_DROP = 0.25  # fail below 75% of baseline
LATENCY_RISE = 0.50  # fail above 150% of baseline


def serial_configs_per_sec(row):
    seconds = row.get("jobs1_seconds")
    return row["configs"] / seconds if seconds else None


# section -> (throughput name, throughput of a row, latency key or None)
SECTIONS = {
    "churn": ("activations_per_sec",
              lambda row: row.get("activations_per_sec"), "recovery_p99"),
    "explore_scale": ("configs_per_sec_jobs1", serial_configs_per_sec, None),
}


def rows_by_instance(report, section):
    return {r["instance"]: r for r in report.get(section, [])}


def complete(row):
    # churn rows are always complete (the campaign runs to its horizon);
    # explore_scale rows carry an explicit flag.
    return row.get("complete", True)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        current = json.load(f)

    failures = []
    compared = 0
    for section, (tp_key, tp_of, lat_key) in SECTIONS.items():
        base_rows = rows_by_instance(baseline, section)
        cur_rows = rows_by_instance(current, section)
        for name in sorted(set(base_rows) | set(cur_rows)):
            if name not in base_rows:
                print(f"{section}/{name}: not in baseline, skipped "
                      "(regenerate BENCH_seed.json to gate it)")
                continue
            if name not in cur_rows:
                print(f"{section}/{name}: not in current run, skipped")
                continue
            base, cur = base_rows[name], cur_rows[name]
            if not (complete(base) and complete(cur)):
                print(f"{section}/{name}: truncated leg, skipped")
                continue
            compared += 1
            b_tp, c_tp = tp_of(base), tp_of(cur)
            if b_tp and c_tp is not None:
                ratio = c_tp / b_tp
                verdict = "OK"
                if ratio < 1.0 - THROUGHPUT_DROP:
                    verdict = "FAIL"
                    failures.append(
                        f"{section}/{name}: throughput regression — "
                        f"{tp_key} {c_tp:.0f} is {ratio:.0%} of baseline "
                        f"{b_tp:.0f} (floor {1.0 - THROUGHPUT_DROP:.0%})")
                print(f"{section}/{name}: {tp_key} {c_tp:.0f} vs baseline "
                      f"{b_tp:.0f} ({ratio:.0%}) {verdict}")
            if lat_key is not None:
                b_lat, c_lat = base.get(lat_key), cur.get(lat_key)
                if b_lat is not None and c_lat is not None and b_lat > 0:
                    ratio = c_lat / b_lat
                    verdict = "OK"
                    if ratio > 1.0 + LATENCY_RISE:
                        verdict = "FAIL"
                        failures.append(
                            f"{section}/{name}: latency regression — "
                            f"{lat_key} {c_lat} is {ratio:.0%} of baseline "
                            f"{b_lat} (ceiling {1.0 + LATENCY_RISE:.0%})")
                    print(f"{section}/{name}: {lat_key} {c_lat} vs baseline "
                          f"{b_lat} ({ratio:.0%}) {verdict}")

    if compared == 0:
        sys.exit("no matching complete rows between baseline and current "
                 "run — regenerate BENCH_seed.json")
    for f in failures:
        print(f, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
