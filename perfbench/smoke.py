#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, on reduced instances (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload in BENCHMARK.json:
  * untraced and traced runs print, as their last line, a result with exactly
    the keys correct/attempted/failed/metrics, every metric of the matching
    BENCHMARK.json list with its unit, and no failed op;
  * end-to-end values are positive;
  * two runs on the same seed print the same digest;
  * a deliberately wrong expected verdict (--expect-wrong) is counted as
    failed ops: every op on the explorer and churn workloads, and at least
    one on the fuzz workload;
and that the benchmark exits non-zero, printing no result, in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, *extra, cwd=ROOT):
    args = ["python3", RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
            "--size", "smoke", *extra]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), lines
    except (IndexError, json.JSONDecodeError):
        return None, lines


def digest_line(lines):
    return next((l for l in lines if l.startswith("digest_md5:")), None)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    catalogue = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace in ("0", "1", "0"):
            proc = run(w, "--trace", trace)
            res, lines = result(proc)
            what = f"{w} --trace {trace}"
            check(proc.returncode == 0 and res is not None, f"{what}: exits 0 with a result")
            if res is None:
                print(proc.stderr[-2000:])
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{what}: result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{what}: correct, {res['failed']} of {res['attempted']} ops failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == catalogue[trace], f"{what}: metric names and units match BENCHMARK.json")
            if trace == "0":
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      f"{what}: end-to-end values are positive")
            digests.append(digest_line(lines))
        check(digests[0] is not None and len(set(digests)) == 1,
              f"{w}: same digest on the same seed ({digests[0]})")
        proc = run(w, "--trace", "0", "--expect-wrong")
        res, _ = result(proc)
        if res is None:
            check(False, f"{w} --expect-wrong: result")
        elif w.startswith("fuzz"):
            check(res["failed"] > 0 and not res["correct"],
                  f"{w} --expect-wrong: {res['failed']} of {res['attempted']} ops failed")
        else:
            check(res["failed"] == res["attempted"] and not res["correct"],
                  f"{w} --expect-wrong: fail_rate 1 ({res['failed']} of {res['attempted']})")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("_out"))
        proc = run(spec["workloads"][0]["name"], "--trace", "0", cwd=bare)
        check(proc.returncode != 0 and proc.stdout.strip() == "",
              f"bare checkout: exit {proc.returncode}, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
