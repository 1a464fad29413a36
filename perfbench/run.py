"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run, from the root of a checkout:

1. Write the workload's inputs from ``--seed`` (untimed).
2. Start one fresh workload process (``worker.py``): warm-up on the
   reference cycle, then a closed loop with one client for ``--seconds``.
   With ``--trace 1`` every untraced cycle is followed by a traced one.
3. ``setup_s``: time ``import ivbounds.cli`` in fresh interpreters: one
   discarded, then ``SETUP_REPEATS`` before and as many after the workload
   process, and one between its cycles every ``SETUP_EVERY_S``, so that the
   median spans the run rather than one moment of it.
   Latency and throughput are means over the run's whole cycles.  On a
   shared 2-vCPU KVM guest, speed switched between two levels about 30%
   apart for tens of seconds at a time (BASELINE.md); a median over requests
   jumps between the two levels where a mean weighs each by the time spent
   in it.
4. Print a details line (provenance, tail percentile, failures, layer
   shares), then the result line: ``correct``, ``attempted``, ``failed``
   and the end-to-end metrics (``--trace 0``) or per-layer metrics
   (``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / "_run"          # generated inputs and span files; not committed
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 2
SETUP_EVERY_S = 10.0
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "latency_mean_s": "s",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-request means from the traced cycles.  ``<module>.self_s`` is the self
# time of every span of that module; ``trace.overhead_s`` is the traced minus
# the untraced mean latency.  From the untraced cycles: ``latency_p50_s`` and
# ``latency_tail_s`` over the cycles' mean request times, and each request
# kind's mean latency.  The median and tail are here rather than bounded end
# to end because they jump between the two speed levels (see above),
# and with fewer than 11 cycles in a run the tail is the maximum.
KINDS = ("direct", "lse", "continuous", "simulate", "illustrate")
PER_LAYER = (
    "latency_p50_s", "latency_tail_s", *(f"request.{k}.mean_s" for k in KINDS),
    "failed_fraction", "max_result_drift", "trace.overhead_s",
    "data.load_csv.s", "data.load_csv.rows_per_s",
    "learners.histogram.fit.s", "learners.histogram.fit.calls",
    "learners.histogram.predict.s", "learners.histogram.leaves",
    "learners.knn.fit.s", "learners.knn.predict.s", "learners.knn.predict.rows",
    "learners.softmax.fit.s", "learners.softmax.fit.calls",
    "learners.softmax.iters", "learners.softmax.predict.s",
    "crossfit.cross_fit.s", "crossfit.cross_fit.self_s",
    "crossfit.fit_propensity.calls", "crossfit.fit_joint.calls", "crossfit.evaluate.s",
    "bounds.theta.s", "bounds.theta.calls", "bounds.theta.rows",
    "estimators.psi_correction.s", "estimators.psi_correction.calls",
    "estimators.psi_correction.rows", "estimators.direct_bounds.s",
    "estimators.plugin_bounds.s",
    "lse.lse_bounds.s", "lse.lse_bounds.calls",
    "continuous.replicates", "continuous.augment.s", "continuous.continuous_bounds.self_s",
    "simulation.replicates", "simulation.gen_margin.s", "simulation.nuisance_eval.s",
    "simulation.gen_illustration.s", "simulation.illustration_truth.s",
    "simulation.width_comparison.s",
    "cli.request.self_s", "cli.emit.s",
    "data.self_s", "learners.self_s", "crossfit.self_s", "bounds.self_s",
    "estimators.self_s", "lse.self_s", "continuous.self_s", "simulation.self_s",
    "cli.self_s",
)
MODULES = ("data", "learners", "crossfit", "bounds", "estimators", "lse",
           "continuous", "simulation", "cli")


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".rows"):
        return "rows"
    return {"failed_fraction": "ratio", "max_result_drift": "abs"}.get(name, "count")


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def time_setup(repeats: int) -> list[float]:
    """Seconds from starting an interpreter to ``import ivbounds.cli`` done."""
    code = "import time, ivbounds.cli; print(time.monotonic())"
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=_python_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def latency_tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it, else the maximum.

    Returns (value, percentile, samples beyond it).
    """
    xs = sorted(latencies)
    if len(xs) > 10:
        k = len(xs) - 10
        return xs[k - 1], 100.0 * k / len(xs), 10
    return xs[-1], 100.0, 0


def _blas_threads():
    import ctypes
    import glob

    import numpy
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for lib in glob.glob(pattern):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    from importlib import metadata

    import numpy
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def run_worker(spec: dict, work: Path) -> dict:
    """Run ``worker.py`` on ``spec`` in a fresh interpreter and return its result."""
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                           str(result_path)], env=_python_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def cycle_spec(workload: str, work: Path, seed: int, scale: str) -> list[dict]:
    """One cycle of ``workload`` as the workload process receives it."""
    return [{"kind": r.kind, "argv": r.argv, "rows": r.rows}
            for r in WORKLOADS[workload].cycle(work, seed, scale)]


def count_failed(records: list[dict]) -> int:
    """Requests that raised, exited non-zero or failed a check."""
    return sum(1 for r in records if r["problems"])


def _metric(name: str, value: float) -> dict:
    return {"value": value, "unit": unit(name)}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """One benchmark run; returns (details, result)."""
    if not (ROOT / "src" / "ivbounds" / "cli.py").is_file():
        raise FileNotFoundError(f"no ivbounds sources under {ROOT / 'src'}")
    recorded = json.loads(REFERENCE.read_text())
    time_setup(1)  # fills __pycache__ and the page cache
    setup_times = time_setup(SETUP_REPEATS)
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RUN_DIR))
    try:
        spec = {
            "root": str(ROOT),
            "reference": cycle_spec(workload, work, REFERENCE_SEED, "reference"),
            "reference_outputs": recorded[workload],
            "requests": cycle_spec(workload, work, seed, scale),
            "seconds": seconds,
            "setup_every_s": SETUP_EVERY_S,
            "trace": trace,
            "spans_path": str(RUN_DIR / f"spans-{workload}-seed{seed}.jsonl"),
        }
        out = run_worker(spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_times += out["setup_times"] + time_setup(SETUP_REPEATS)

    records = out["records"]
    failures = [p for r in records for p in r["problems"]]
    failed = count_failed(records)
    untraced = [r for r in records if not r["traced"]]
    busy_s = sum(r["seconds"] for r in untraced)
    cycle_means = [statistics.mean(r["seconds"] for r in untraced if r["cycle"] == n)
                   for n in sorted({r["cycle"] for r in untraced})]
    tail, percentile, beyond = latency_tail(cycle_means)
    details = {
        "workload": workload, "trace": int(trace), "scale": scale,
        "provenance": dict(provenance(seed),
                           warmup_requests_discarded=out["warmup_requests"]),
        "latencies_s": [[r["kind"], r["seconds"]] for r in untraced],
        "cycle_mean_latencies_s": cycle_means,
        "setup_times_s": setup_times,
        "latency_tail": {"value": tail, "percentile": percentile,
                         "samples_beyond": beyond, "samples": len(cycle_means)},
        "max_result_drift": out["max_result_drift"],
        "failures": (out["reference_problems"] + failures)[:10],
    }
    if trace:
        layers = out["layers"]
        traced = [r["seconds"] for r in records if r["traced"]]
        details["traced_latencies_s"] = traced
        layers["latency_p50_s"] = statistics.median(cycle_means)
        layers["latency_tail_s"] = tail
        for kind in {r["kind"] for r in untraced}:
            layers[f"request.{kind}.mean_s"] = statistics.mean(
                r["seconds"] for r in untraced if r["kind"] == kind)
        layers["failed_fraction"] = failed / len(records)
        layers["max_result_drift"] = out["max_result_drift"]
        layers["trace.overhead_s"] = statistics.mean(traced) - busy_s / len(untraced)
        request_s = layers["cli.request.s"]
        details["layer_share"] = {m: layers.get(f"{m}.self_s", 0.0) / request_s
                                  for m in MODULES}
        details["dominant_layer"] = max(MODULES, key=lambda m: details["layer_share"][m])
        metrics = {name: _metric(name, layers.get(name, 0.0)) for name in PER_LAYER}
    else:
        values = {
            "latency_mean_s": busy_s / len(untraced),
            "rows_per_s": sum(r["rows"] for r in untraced) / busy_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: _metric(name, v) for name, v in values.items()}
    result = {"correct": not failed and not out["reference_problems"],
              "attempted": len(records), "failed": failed, "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the smoke test")
    args = p.parse_args(argv)
    details, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.scale)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
