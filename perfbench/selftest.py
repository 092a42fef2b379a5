"""Self-test of the benchmark on tiny inputs.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Runs A1-A3 (verify local and minor), one 3-point surface and one relabeled
Cayley table through the same pass, tally and trace machinery the benchmark
uses, and checks that:

* every metric named in BENCHMARK.json is emitted, and nothing else;
* all items pass with one digest each, traced and untraced alike;
* two traced passes at one seed give identical call counts, and every
  wrapper is removed afterwards;
* negative controls: an item with a non-zero exit code and a tampered report
  each count as one failed item among those attempted;
* outside a checkout (only BENCHMARK.json and this directory) the benchmark
  exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import reports
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def tiny_items(tmp: Path) -> list[dict]:
    items = []
    for label in ("A1", "A2", "A3"):
        items.append({"id": f"verify-local-{label}", "argv": ["verify", "local", "--type", label]})
        items.append({"id": f"minor-{label}", "argv": ["minor", "--type", label]})
    surface = {
        "picard_rank": 1,
        "intersection_matrix": [[1]],
        "points": [{"id": "p", "type": "A1"}, {"id": "q", "type": "A2"}, {"id": "r", "type": "A1"}],
    }
    (tmp / "surface.json").write_text(json.dumps(surface))
    items.append({"id": "surface", "argv": ["verify", "global", "--config", str(tmp / "surface.json")]})
    table = workloads._relabel(workloads._perm_table(workloads._perms(3)), random.Random(7))
    (tmp / "s3.json").write_text(json.dumps({"cayley": table}))
    items.append({"id": "cayley-S3", "argv": ["minor", "--group", str(tmp / "s3.json")]})
    return items


def check_metric_names(setup, passes, traced) -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = set(run.end_to_end(setup, passes))
    layer = set(run.per_layer(passes[0], traced))
    check(e2e == {m["name"] for m in declared["end_to_end"]},
          "end-to-end metrics match BENCHMARK.json")
    check(layer == {m["name"] for m in declared["per_layer"]},
          "per-layer metrics match BENCHMARK.json")
    check(layer == set(spans.per_layer_metric_names()), "per-layer metrics match the span table")
    check({w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS),
          "workloads match BENCHMARK.json")


def check_tracer_restores() -> None:
    import mckay.catalog
    import mckay.chartab
    import mckay.cyclo

    originals = (mckay.catalog.mckay_graph, mckay.cyclo.CycNum.__dict__["__mul__"])
    tracer = spans.Tracer()
    tracer.install()
    patched = (mckay.catalog.mckay_graph, mckay.cyclo.CycNum.__dict__["__mul__"])
    tracer.uninstall()
    check(all(a is not b for a, b in zip(originals, patched)), "wrappers replace imported references")
    check(tracer.restored() and mckay.chartab.mckay_graph is originals[0],
          "uninstall restores every original")

    import mckay.linalg

    saved = mckay.linalg.matmul
    del mckay.linalg.matmul
    try:
        tracer = spans.Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        mckay.linalg.matmul = saved
    check(tracer.missing == ["linalg.matmul"] and tracer.restored(),
          "a function the package no longer has is skipped and listed")


def negative_controls(root: Path, tmp: Path, passes: list[dict]) -> None:
    # tampered report: same verdict, different determinant, so only the digest tells
    report = json.loads((tmp / "reports" / "1.json").read_text())  # minor-A1, last pass
    report["determinant"]["coeffs"] = {"0": "12345"}
    tampered = copy.deepcopy(passes)
    tampered[-1]["items"][1]["digest"] = reports.digest(report)
    attempted, failed = run.tally(tampered)
    expected = sum(len(p["items"]) for p in passes)
    check(attempted == expected and len(failed) == 1
          and failed[0]["reason"].startswith("report digest differs"),
          "a tampered report counts as one failed item and is still attempted")
    report["report"]["pass"] = False
    check(not reports.passed(report), "a report saying pass: false is not a success")

    # non-zero exit: a table whose rows are not permutations is rejected (exit 2)
    (tmp / "bad.json").write_text(json.dumps({"cayley": [[0, 1], [0, 1]]}))
    items = [{"id": "bad-table", "argv": ["minor", "--group", str(tmp / "bad.json")]}]
    bad = run.run_pass(root, tmp, items, 0, False)
    attempted, failed = run.tally(passes + [bad])
    check(attempted == expected + 1 and len(failed) == 1 and failed[0]["reason"] == "exit 2",
          "an item exiting 2 counts as one failed item and is still attempted")


def check_outside_checkout(tmp: Path) -> None:
    bare = tmp / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "outside a checkout: non-zero exit and no result")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as name:
        tmp = Path(name)
        items = tiny_items(tmp)
        passes = [run.run_pass(root, tmp, items, s, False) for s in (0, 1)]
        traced = [run.run_pass(root, tmp, items, 0, True) for _ in range(2)]
        attempted, failed = run.tally(passes + traced)
        check(attempted == 4 * len(items) and not failed, "tiny inputs: every item passes")
        check(not run.trace_problems(passes[0], traced),
              "traced reports match untraced; call counts repeat; wrappers removed")
        counts = {n: v["calls"] for n, v in traced[0]["layers"].items()}
        check(all(counts[n] > 0 for n in ("cyclo.mul", "linalg.determinant",
                                          "surface.verify_assembly", "groups.group_from_cayley")),
              "spans recorded in every layer the tiny inputs reach")
        check_metric_names(run.measure_setup(root)[:3], passes, traced)
        check_tracer_restores()
        negative_controls(root, tmp, passes)
        check_outside_checkout(tmp)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
