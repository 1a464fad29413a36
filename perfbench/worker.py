"""The workload process: one fresh interpreter per run, so its peak RSS is the workload's.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

It imports ``ivbounds.cli`` from the checkout's ``src``, sends the reference
cycle as warm-up (its reports are compared with ``reference.json``), then runs
the closed loop: one client, each request an in-process call of
``ivbounds.cli.main(argv)`` with stdout captured, the next sent when the
previous returns.  Every report is checked; checking is not timed.  Between
cycles, at most every ``setup_every_s``, it times ``import ivbounds.cli`` in
a fresh interpreter for ``setup_s``; that is not timed as a request either.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

from checks import check_report, drift
from run import time_setup


def execute(main, argv: list[str], tracer=None) -> tuple[float, list[str], dict]:
    """Time one request; return its wall time, problems and drift values."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        scope = tracer.request() if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                code = main(argv)
        except Exception as exc:  # a request that raises counts as failed
            raised = exc
        elapsed = time.perf_counter() - start
    if raised is not None:
        problems, values = [f"raised {raised!r}"], {}
    else:
        problems, values = check_report(argv, code, out.getvalue())
    if problems and err.getvalue().strip():
        problems.append("stderr: " + err.getvalue().strip()[-300:])
    return elapsed, problems, values


def run_loop(main, cycle: list[dict], seconds: float, tracer=None,
             between=None) -> list[dict]:
    """Send whole cycles until ``seconds`` have passed, at least one.

    With a tracer, each untraced cycle is followed by the same cycle traced,
    so the two latencies are measured under the same conditions.
    ``between`` is called, untimed, after every cycle but the last.
    """
    records = []
    start = time.perf_counter()
    for n in itertools.count():
        for t in ((None, tracer) if tracer else (None,)):
            for req in cycle:
                elapsed, problems, _ = execute(main, req["argv"], t)
                records.append({"traced": t is not None, "cycle": n, "kind": req["kind"],
                                "seconds": elapsed, "rows": req["rows"],
                                "problems": problems})
        if time.perf_counter() - start >= seconds:
            return records
        if between:
            between()


def warm_up(main, reference_cycle: list[dict], recorded: list[dict] | None):
    """Send the reference cycle; return its problems, drift and values."""
    problems, worst, values = [], 0.0, []
    for i, req in enumerate(reference_cycle):
        _, req_problems, req_values = execute(main, req["argv"])
        problems += [f"reference request {i}: {p}" for p in req_problems]
        values.append(req_values)
        if recorded is not None and not req_problems:
            d, missing = drift(req_values, recorded[i])
            worst = max(worst, d)
            if missing:
                problems.append(f"reference request {i}: missing {missing[:5]}")
    return problems, worst, values


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["root"]) / "src"
    import ivbounds.cli as cli
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"ivbounds was imported from {cli.__file__}, not {src}")
    ref_problems, worst, ref_values = warm_up(cli.main, spec["reference"],
                                              spec.get("reference_outputs"))
    result = {"reference_problems": ref_problems, "max_result_drift": worst,
              "reference_values": ref_values,
              "warmup_requests": len(spec["reference"])}
    if spec["requests"]:
        tracer = None
        if spec["trace"]:
            from spans import Tracer
            tracer = Tracer()
        setup_times, last = [], time.perf_counter()

        def sample_setup():
            nonlocal last
            if time.perf_counter() - last >= spec["setup_every_s"]:
                setup_times.extend(time_setup(1))
                last = time.perf_counter()

        result["records"] = run_loop(cli.main, spec["requests"], spec["seconds"], tracer,
                                     sample_setup)
        result["setup_times"] = setup_times
        if tracer:
            result["layers"] = tracer.summary()
            tracer.write(spec["spans_path"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
