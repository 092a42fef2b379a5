"""Benchmark of the mckay CLI: cold time-to-verdict on four seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 24 --trace 0

The workload seed makes the inputs (see ``workloads.py``).  Each pass runs
every item of the workload through ``mckay.cli.main(argv)`` with ``--jobs 1``
in one fresh worker process, so every pass starts with nothing cached.
Passes repeat, each with its own CLI ``--seed``, while the next one is
expected to end within ``--seconds``; one pass always runs.  Every item is
checked: exit code 0,
the report says ``pass: true``, and the report minus ``seed`` and
``timings`` hashes the same on every pass.

Times are reported in reference seconds: wall or CPU seconds with the
machine's momentary speed divided out (see ``clock.py``); the raw figures
are in the detail line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes with the same CLI seed (see ``spans.py``)
and reports per-layer self time and call counts; it also checks that the
traced reports hash like the untraced ones and that the call counts of two
traced passes agree exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds details (per-pass figures, item sizes, failures).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("item_s.p50", "s"),
    ("item_s.p90", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 9
# No pass is started that should end later than this into the run, whatever
# --seconds says, so that the run ends inside its 180 s allowance.
LAST_PASS_END_S = 150.0
WORKER_TIMEOUT_S = 165.0
# Times the import first, then converts it with kernel samples taken right after.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import mckay.cli; wall = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "import clock; print(clock.reference_now(wall))"
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest value with pct% of all values
    at or below it.  It is always one of the values, so it never lands
    between two items of very different cost."""
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def measure_setup(root: Path) -> list[float]:
    """Reference seconds a fresh interpreter takes to import mckay.cli, per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(root / "src"), str(HERE)],
            cwd=root, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing mckay.cli failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip()))
    return samples


def cli_seed(seed: int, pass_index: int) -> int:
    return seed * 1000 + pass_index


def run_pass(root: Path, tmp: Path, items: list[dict], seed: int, trace: bool,
             trace_file: Path | None = None) -> dict:
    """One cold pass in a fresh worker process; returns the worker's result."""
    spec_path, result_path = tmp / "spec.json", tmp / "result.json"
    result_path.unlink(missing_ok=True)
    spec = {
        "root": str(root),
        "items": items,
        "seed": seed,
        "outdir": str(tmp / "reports"),
        "trace": trace,
        "trace_file": str(trace_file) if trace_file else None,
        "result": str(result_path),
    }
    spec_path.write_text(json.dumps(spec))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result["seed"] = seed
    result["wall_s"] = time.perf_counter() - t0
    return result


def tally(passes: list[dict]) -> tuple[int, list[dict]]:
    """Attempted item runs and the failed ones.

    An item run fails when its exit code is not 0, its report does not say
    ``pass: true``, or its report digest differs from the digest the same
    item gave in the first pass where it succeeded.
    """
    reference: dict[str, str] = {}
    for p in passes:
        for it in p["items"]:
            if it["ok"]:
                reference.setdefault(it["id"], it["digest"])
    attempted, failed = 0, []
    for k, p in enumerate(passes):
        for it in p["items"]:
            attempted += 1
            if not it["ok"]:
                reason = "report does not pass" if it["rc"] == 0 else (
                    "raised an exception" if it["rc"] is None else f"exit {it['rc']}")
            elif it["digest"] != reference[it["id"]]:
                reason = "report digest differs from the first passing run"
            else:
                continue
            failed.append({"pass": k, "id": it["id"], "reason": reason,
                           "error": (it.get("error") or "")[-500:]})
    return attempted, failed


def end_to_end(setup: list[float], passes: list[dict]) -> dict:
    # one figure per item: its median over the passes, so that the noise of
    # a single short run does not decide which item the percentile lands on
    item_times = [
        statistics.median(p["items"][k]["item_s"] for p in passes)
        for k in range(len(passes[0]["items"]))
    ]
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "item_s.p50": percentile(item_times, 50),
        "item_s.p90": percentile(item_times, 90),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(untraced: dict, traced: list[dict]) -> dict:
    first = traced[0]
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(t["layers"][name]["self_s"] for t in traced), "unit": "s"}
        metrics[f"{name}.calls"] = {"value": first["layers"][name]["calls"], "unit": "count"}
    metrics["correspondence.verify.distinct_ratio"] = {"value": first["distinct_ratio"], "unit": "ratio"}
    metrics["catalog.ade_bundle.hit_ratio"] = {"value": first["hit_ratio"], "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(t["pass_s"] for t in traced) / untraced["pass_s"], "unit": "ratio"}
    return metrics


def trace_problems(untraced: dict, traced: list[dict]) -> list[str]:
    problems = []
    plain = [it["digest"] for it in untraced["items"]]
    for k, t in enumerate(traced):
        if not t["restored"]:
            problems.append(f"traced pass {k} left a wrapper installed")
        if [it["digest"] for it in t["items"]] != plain:
            problems.append(f"traced pass {k} reports differ from the untraced pass")
        counts = {n: v["calls"] for n, v in t["layers"].items()}
        if k and counts != {n: v["calls"] for n, v in traced[0]["layers"].items()}:
            problems.append(f"traced pass {k} call counts differ from traced pass 0")
    return problems


def measure(root: Path, tmp: Path, workload: str, items: list[dict], seed: int,
            seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the passes; return (result line, detail line)."""
    detail: dict = {"workload": workload, "why": workloads.WHY[workload], "seed": seed}
    if not trace:
        detail["setup_samples"] = setup = measure_setup(root)
    start = time.perf_counter()

    def keep_going(done: list[dict]) -> bool:
        """Start another pass only if it should end within the run's seconds."""
        elapsed = time.perf_counter() - start
        expected = statistics.median(p["wall_s"] for p in done)
        return elapsed + expected <= min(seconds, LAST_PASS_END_S)

    if not trace:
        passes = [run_pass(root, tmp, items, cli_seed(seed, 0), False)]
        while keep_going(passes):
            passes.append(run_pass(root, tmp, items, cli_seed(seed, len(passes)), False))
        metrics = end_to_end(setup, passes)
        problems: list[str] = []
    else:
        s0 = cli_seed(seed, 0)
        out_dir = root / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        untraced = run_pass(root, tmp, items, s0, False)
        traced = [run_pass(root, tmp, items, s0, True, out_dir / f"spans-{workload}.bin")]
        if keep_going(traced):
            traced.append(run_pass(root, tmp, items, s0, True))
        passes = [untraced] + traced
        metrics = per_layer(untraced, traced)
        problems = trace_problems(untraced, traced)
        detail["untraced_functions"] = traced[0]["missing"]
    attempted, failed = tally(passes)
    detail["passes"] = [
        {key: p[key] for key in ("seed", "pass_s", "cpu_s", "peak_rss_mb", "pass_wall_s", "speed")}
        | {"traced": "layers" in p}
        for p in passes
    ]
    detail["item_samples"] = attempted
    detail["sizes"] = {it["id"]: it.get("sizes") for it in passes[0]["items"]}
    detail["failures"] = failed
    detail["problems"] = problems
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running worker is killed and waited for and
    # the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "mckay" / "cli.py").is_file():
        print("error: run from the root of a mckay checkout (src/mckay/cli.py not found)",
              file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp_name:
            tmp = Path(tmp_name)
            items = workloads.build(args.workload, args.seed, tmp)
            result, detail = measure(root, tmp, args.workload, items, args.seed,
                                     args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
