"""Self-test of the benchmark harness.

    python3 opebench/selftest.py        # from the root of a checkout, ~1 min

Runs every workload for one second in both modes and
checks the contract of the result line: exactly the metrics the file names,
with their units; every op gated and passing; the run-level gates
evaluated; the exact counts of two traced runs on one seed equal.  Last, it
checks that a directory holding only BENCHMARK.json and the benchmark fails
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_GATES = {"hkpv_mc": 4}   # run-level gates per workload; the rest gate per op only
EXTRA_WORKLOADS = ["moments_cold"]


def run(cmd, cwd, trace, workload):
    proc = subprocess.run(cmd + ["--workload", workload, "--seed", "5", "--seconds", "1",
                                 "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"]
    # every workload the harness defines, also those BENCHMARK.json does not list
    for wl in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        counts = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            code, lines, err = run(cmd, ROOT, trace, wl)
            check(code == 0 and lines, f"{wl} trace={trace} exit {code}: {err[-2000:]}")
            result = json.loads(lines[-1])
            info = json.loads(lines[0])["info"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{wl} trace={trace}: metrics {sorted(set(got) ^ set(want))}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{wl} trace={trace}: {info['problems']}")
            check(info["op_gates"] == result["attempted"], f"{wl}: not every op was gated")
            check(info["run_gates"] == RUN_GATES.get(wl, 0), f"{wl}: run-level gates skipped")
            if trace:
                counts.append(info["exact_counts"])
            print(f"ok  {wl:12s} trace={trace}  ops={result['attempted']}")
        check(counts[0] == counts[1], f"{wl}: exact counts differ between traced runs")

    bare = ROOT / ".opebench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(cmd, bare, 0, spec["workloads"][0]["name"])
        check(code != 0 and not lines, "a checkout without the program printed a result")
        print("ok  bare directory fails without a result")
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
