"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Every workload at tiny sizes, untraced and traced: the result line has
   exactly the keys ``correct``, ``attempted``, ``failed``, ``metrics``, is
   correct, and carries every metric BENCHMARK.json names, with its unit.
2. Deliberately corrupted reports fail their checks, and a run whose every
   report is corrupted counts every request as failed.
3. In a directory holding only BENCHMARK.json and this directory, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import check_report
from run import ROOT, RUN_DIR, cycle_spec, count_failed
from worker import run_loop

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_names() -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[group]}
        for w in BENCHMARK["workloads"]:
            done = _run(ROOT, w["name"], trace)
            assert done.returncode == 0, done.stderr[-2000:]
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, done.stdout[-2000:]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (w["name"], trace, set(got) ^ set(expected))
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            print(f"ok  {w['name']} --trace {trace}: {len(got)} metrics")


def _corrupt(report: dict) -> dict:
    if "rows" in report:            # simulate
        report["rows"] = report["rows"][1:]
    elif "estimate" in report:      # illustrate
        report["truth"]["ate"] += 0.01
    else:                           # bounds
        report["interval"]["lo"] = report["lower"] + 1.0
    return report


def _corrupting(main):
    """``main`` with each report it prints corrupted."""
    def corrupted(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        print(json.dumps(_corrupt(json.loads(buf.getvalue()))))
        return code
    return corrupted


def check_corrupted_reports() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import ivbounds.cli as cli

    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=RUN_DIR))
    try:
        for name in ("analyst", "replication"):
            cycle = cycle_spec(name, work, 3, "tiny")
            for req in cycle:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(req["argv"])
                assert check_report(req["argv"], code, buf.getvalue())[0] == []
                bad = json.dumps(_corrupt(json.loads(buf.getvalue())))
                assert check_report(req["argv"], code, bad)[0], (name, req["argv"])
            records = run_loop(_corrupting(cli.main), cycle, 0.0)
            assert count_failed(records) == len(records) > 0, records
            print(f"ok  {name}: corrupted reports counted as failed")
        assert check_report(["illustrate"], 2, "")[0] == ["exit code 2"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    RUN_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=RUN_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("_run", "__pycache__"))
        done = _run(bare, "replication", 0)
        assert done.returncode != 0, done.stdout
        assert '"correct"' not in done.stdout, done.stdout
        print("ok  bare directory: exit", done.returncode, "and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_corrupted_reports()
    check_bare_directory()
    check_metric_names()
    print("smoke test passed")
