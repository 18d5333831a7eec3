"""wavetank benchmark: time, CPU and memory of the CLI, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

One client runs the workload in a closed loop for S seconds: each iteration is
a fresh Python process (perfbench/worker.py) that imports `wavetank.cli` from
./src and calls `wavetank.cli.main(argv)` once; the outputs are checked after
the process exits, outside every timed region.  Before the loop, one
discarded import warms the file cache and SETUP_SAMPLES import-only processes
sample the set-up time.

--trace 0 reports the end-to-end metrics (medians over iterations).
--trace 1 alternates untraced and traced iterations and reports the per-layer
metrics of the traced ones (medians), plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A record with the environment, the argv and every sample
goes to .perfbench/results/.  Without ./src/wavetank the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import spans
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench")
SETUP_SAMPLES = 10
# a run of one workload must end within 180 s, even when a worker hangs
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    return env


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(root: Path, env: dict) -> dict:
    return {
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": _nproc(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE"),
    }


def _spawn(job: dict, work: Path, env: dict, deadline: float):
    """Run one worker, killed at `deadline` (perf_counter); returns (result or None, error text)."""
    job_path = work / "job.json"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    job_path.write_text(json.dumps(dict(job, result=str(result_path))))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        return None, "worker killed at the run's time limit"
    if proc.returncode != 0 or not result_path.exists():
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(result_path.read_text()), ""


def _stats(values) -> dict:
    vals = list(values)
    q1, q3 = (statistics.quantiles(vals, n=4)[::2]) if len(vals) >= 2 else (vals[0], vals[0])
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool, size: str, env: dict) -> dict:
    """Measure one workload for `seconds`; returns the full record of the run."""
    work = root / WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"
    spec = workloads.build(name, seed, str(out.relative_to(root)), size)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S

    setup = []
    for i in range(SETUP_SAMPLES + 1):
        res, err = _spawn({"argv": None, "trace": False, "run_id": -1}, work, env, deadline)
        if res is None:
            raise RuntimeError(f"import-only run failed: {err}")
        expected = (root / "src" / "wavetank" / "cli.py").resolve()
        if Path(res["module"]).resolve() != expected:
            raise RuntimeError(f"imported {res['module']}, expected {expected}")
        if i > 0:  # the first import only warms the file cache
            setup.append(res["setup_s"])

    modes = ("untraced", "traced") if trace else ("untraced",)
    samples = {"untraced": [], "traced": []}
    tries = {"untraced": 0, "traced": 0}
    errors = []
    attempted = failed = 0
    durations = []
    while True:
        # stop before an iteration that would overrun the budget, once every
        # mode has a sample (or has failed twice)
        now = time.perf_counter()
        over = durations and now - start + statistics.median(durations) > seconds
        if (over and all(samples[m] or tries[m] >= 2 for m in modes)) or now >= deadline:
            break
        mode = modes[attempted % len(modes)]
        tries[mode] += 1
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        attempted += 1
        job = {"argv": list(spec.argv), "trace": mode == "traced", "run_id": attempted}
        res, err = _spawn(job, work, env, deadline)
        problems = [err] if res is None else []
        if res is not None:
            setup.append(res["setup_s"])
            if res["exit_code"] != 0:
                problems.append(f"wavetank exited {res['exit_code']}")
            problems += workloads.check(spec)
            res["out_bytes"] = _dir_bytes(out) if out.exists() else 0
            res["problems"] = problems
            samples[mode].append(res)
        if problems:
            failed += 1
            errors.append({"run_id": attempted, "problems": problems[:5]})
            print(f"perfbench: {name} run {attempted} failed: {problems[0]}", file=sys.stderr)
        durations.append(time.perf_counter() - t0)

    untraced = samples["untraced"]
    end_to_end = {"setup_s": _stats(setup)}
    for key in ("run_s", "cpu_s", "peak_rss_mb"):
        if untraced:
            end_to_end[key] = _stats([r[key] for r in untraced])
    per_layer = {}
    layer_share = {}
    if samples["traced"]:
        per_run = [spans.layer_metrics(r["spans"], r["out_bytes"]) for r in samples["traced"]]
        per_layer = {key: _stats([m[key] for m in per_run]) for key in per_run[0]}
        shares = [spans.layer_shares(m, r["run_s"]) for m, r in zip(per_run, samples["traced"])]
        layer_share = {key: statistics.median(s[key] for s in shares) for key in shares[0]}
        if untraced:
            traced_run = statistics.median(r["run_s"] for r in samples["traced"])
            base_run = end_to_end["run_s"]["median"]
            per_layer["trace.overhead_frac"] = {"median": traced_run / base_run - 1.0, "n": len(per_run)}
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "argv": list(spec.argv),
        "argv_sha256": hashlib.sha256("\0".join(spec.argv).encode()).hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "wall_s": time.perf_counter() - start,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layer_share": layer_share,
        "samples": samples,
    }


def _metrics(record: dict, trace: bool) -> dict:
    if trace:
        units = spans.LAYER_UNITS
        stats = record["per_layer"]
    else:
        units = END_TO_END_UNITS
        stats = record["end_to_end"]
    return {key: {"value": stats[key]["median"], "unit": unit} for key, unit in units.items() if key in stats}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "wavetank" / "cli.py").is_file():
        print("perfbench: no src/wavetank/cli.py here; run from the root of a wavetank checkout", file=sys.stderr)
        return 2
    env = _worker_env(root)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results_dir = root / WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    env_record = environment(root, env)

    records = []
    for name in names:
        try:
            record = run_workload(root, name, args.seed, args.seconds, trace, args.size, env)
        except RuntimeError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        record["environment"] = env_record
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
        path.write_text(json.dumps(record, indent=1))
        records.append(record)
        metrics = _metrics(record, trace)
        fail_frac = record["failed"] / record["attempted"]
        print(f"{name}: {record['attempted']} runs, fail_frac {fail_frac:g}, seed {args.seed}, record {path.relative_to(root)}")
        for key, m in metrics.items():
            st = (record["per_layer"] if trace else record["end_to_end"])[key]
            quart = f"  [q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n {st['n']}]" if "q1" in st else ""
            print(f"  {key:<36} {m['value']:.6g} {m['unit']}{quart}")
        if trace:
            shares = ", ".join(f"{k} {v:.3f}" for k, v in record["layer_share"].items())
            print(f"  share of traced run_s: {shares}")
        else:
            print(f"  {'fail_frac':<36} {fail_frac:g} fraction")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    expected = spans.LAYER_UNITS if trace else END_TO_END_UNITS
    if any(set(_metrics(r, trace)) != set(expected) for r in records):
        print("perfbench: no successful run produced every metric", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = _metrics(records[0], trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in _metrics(r, trace).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
