"""One cold pass over a workload's items, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the checkout root, the items, the CLI seed, a directory for the
reports, whether to trace, and where to write the result.  Every item is one
``mckay.cli.main(argv)`` call in this process; caches filled by one item are
visible to the next, as they would be within one long-running caller, but
nothing survives from an earlier pass because each pass is a new process.
The pass is timed first, in reference seconds (see ``clock.py``); reports
are read and hashed after it ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from clock import SpeedSampler


def _cpu_s() -> float:
    """User + system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    from mckay import cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    outdir = Path(spec["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    for k in range(len(spec["items"])):
        (outdir / f"{k}.json").unlink(missing_ok=True)
    runs = []
    sampler = SpeedSampler()
    sampler.start()
    t0 = time.perf_counter()
    try:
        for k, item in enumerate(spec["items"]):
            argv = list(item["argv"]) + ["--seed", str(spec["seed"]), "--out", str(outdir / f"{k}.json")]
            if tracer is not None:
                tracer.item = k
            err = io.StringIO()
            ci = _cpu_s()
            ti = time.perf_counter()
            with contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the argv
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # an internal error is a failed item, not a crash
                    rc = None
                    traceback.print_exc()
            tj = time.perf_counter()
            runs.append((ti, tj, _cpu_s() - ci, rc, err.getvalue()))
    finally:
        if tracer is not None:
            tracer.uninstall()
    t1 = time.perf_counter()
    sampler.stop()
    peak_rss_mb = max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
    speed = sampler.speed(t0, t1)

    from reports import digest, passed, sizes

    items = []
    for k, (ti, tj, cpu, rc, err) in enumerate(runs):
        entry = {
            "id": spec["items"][k]["id"],
            "item_s": sampler.reference_s(ti, tj),
            "cpu_s": (cpu - sampler.busy(ti, tj)) * sampler.speed(ti, tj),
            "wall_s": tj - ti,
            "rc": rc,
        }
        try:
            payload = json.loads((outdir / f"{k}.json").read_text())
        except (OSError, ValueError) as exc:
            entry.update(ok=False, digest=None, error=err or str(exc))
        else:
            entry.update(ok=rc == 0 and passed(payload), digest=digest(payload), sizes=sizes(payload))
            if err:
                entry["error"] = err
        items.append(entry)
    result = {
        "pass_s": sum(it["item_s"] for it in items),
        "cpu_s": sum(it["cpu_s"] for it in items),
        "peak_rss_mb": peak_rss_mb,
        "pass_wall_s": t1 - t0,
        "speed": speed,
        "items": items,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_totals(sampler.samples, speed)
        result["distinct_ratio"] = tracer.distinct_ratio()
        result["hit_ratio"] = tracer.bundle_hit_ratio()
        result["restored"] = tracer.restored()
        result["missing"] = tracer.missing
        if spec.get("trace_file"):
            tracer.write(spec["trace_file"])
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result = run_pass(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
