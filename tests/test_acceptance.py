"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every check is exact (tolerance zero) except the explicitly floating sanity
layer, whose tolerance is 1e-9.  Timed criteria clear the construction
caches first so the budgets are honest cold-start numbers.
"""

import dataclasses
import json
import time

from mckay import catalog
from mckay.catalog import EXTRA_GROUPS, ade_bundle, extra_bundle
from mckay.chartab import classify_affine_ade
from mckay.cli import main as cli_main
from mckay.correspondence import (
    FLOAT_TOLERANCE,
    char_minor_determinant,
    verify_correspondence,
)
from mckay.groups import ADE_SUITE
from mckay.orbifold import age, obstruction_class
from mckay.resolution import gram_matrix
from mckay.surface import assemble_global, parse_surface, verify_assembly, verify_global

LOCAL_SUITE_BUDGET_S = 60.0
MINOR_BUDGET_S = 10.0
GLOBAL_BUDGET_S = 10.0


def _announce(number, description, body):
    try:
        result = body()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")
    return result


def test_criterion_1_local_theorem_suite():
    def body():
        catalog.clear_caches()
        t0 = time.perf_counter()
        for label in ADE_SUITE:
            report = verify_correspondence(ade_bundle(label).cmap)
            for name in ("multiplicativity", "additive-rank", "isometry", "equivariance"):
                assert report.check(name).passed, (label, name, report.check(name).witness)
        elapsed = time.perf_counter() - t0
        assert elapsed < LOCAL_SUITE_BUDGET_S, f"local suite took {elapsed:.1f}s"

    _announce(1, "local theorem suite, exact, all ADE types", body)


def test_criterion_2_classical_mckay_suite():
    def body():
        for label in ADE_SUITE:
            bundle = ade_bundle(label)
            graph = bundle.graph
            assert graph.affine_label == label
            dims = graph.dims
            n = graph.size
            for v in range(n):
                assert sum(graph.adjacency[v][w] * dims[w] for w in range(n)) == 2 * dims[v]
            # deleting the trivial vertex must reproduce the finite diagram,
            # whose negative Cartan matrix is the resolution pairing
            assert classify_affine_ade(graph.adjacency, dims, graph.trivial_vertex) == label
            rest = [v for v in range(n) if v != graph.trivial_vertex]
            gram = gram_matrix(bundle.resolution)
            for a, v in enumerate(rest):
                for b, w in enumerate(rest):
                    cartan = 2 if v == w else -graph.adjacency[v][w]
                    assert gram[a][b] == -cartan

    _announce(2, "McKay graphs classify as the affine diagrams; Gram = -Cartan", body)


def test_criterion_3_obstruction_and_age_anchors():
    def body():
        for label in ADE_SUITE:
            group = ade_bundle(label).group
            for c in range(len(group.conjugacy.classes)):
                assert age(group, c) == (0 if c == 0 else 1)
            inv = group.inverse
            for a in range(group.order):
                for b in range(group.order):
                    entry = obstruction_class(group, a, b)
                    if a == 0 or b == 0:
                        assert entry.c == 1 and entry.rank == 0
                    else:
                        assert entry.c == (1 if b == inv[a] else 0)

    _announce(3, "ages and obstruction classes, brute-forced over all pairs", body)


def test_criterion_4_minor_corpus():
    def body():
        catalog.clear_caches()
        t0 = time.perf_counter()
        for label in ADE_SUITE:
            assert not char_minor_determinant(ade_bundle(label).table).is_zero(), label
        for name in EXTRA_GROUPS:
            assert not char_minor_determinant(extra_bundle(name).table).is_zero(), name
        elapsed = time.perf_counter() - t0
        assert elapsed < MINOR_BUDGET_S, f"minor corpus took {elapsed:.1f}s"

    _announce(4, "character-table minors nondegenerate (ADE + extra groups)", body)


def test_criterion_5_global_suite():
    def body():
        catalog.clear_caches()
        t0 = time.perf_counter()
        model = parse_surface(
            {
                "picard_rank": 2,
                "intersection_matrix": [[0, 1], [1, 0]],
                "points": [
                    {"id": "p", "type": "A2"},
                    {"id": "q", "type": "D4"},
                    {"id": "r", "type": "E8"},
                ],
            },
            name="A2+D4+E8",
        )
        assembly = assemble_global(model)
        assert assembly.a_y.dim == assembly.a_orb.dim == 18
        report = verify_assembly(assembly)
        assert report.passed, [c.name for c in report.checks if not c.passed]
        elapsed = time.perf_counter() - t0
        assert elapsed < GLOBAL_BUDGET_S, f"global suite took {elapsed:.1f}s"

    _announce(5, "A2+D4+E8 synthetic surface verifies globally, dimension 18", body)


def test_criterion_6_negative_controls():
    def body():
        bundle = ade_bundle("A1")
        # orbifold structure constant
        cmap = dataclasses.replace(
            bundle.cmap,
            target=bundle.invariant.replaced_product("f1", "f1", [("[pt]", 2)]),
        )
        report = verify_correspondence(cmap)
        failing = report.check("multiplicativity")
        assert not report.passed and not failing.passed
        assert failing.witness["left"] == "E1" and failing.witness["right"] == "E1"
        # resolution structure constant
        cmap = dataclasses.replace(
            bundle.cmap,
            source=bundle.resolution.replaced_product("E1", "E1", [("[pt]", -1)]),
        )
        report = verify_correspondence(cmap)
        failing = report.check("multiplicativity")
        assert not report.passed and not failing.passed
        assert failing.witness["left"] == "E1" and failing.witness["right"] == "E1"
        # intersection matrix, one side only
        model = parse_surface(
            {
                "picard_rank": 2,
                "intersection_matrix": [[0, 1], [1, 0]],
                "points": [{"id": "p", "type": "A1"}],
            }
        )
        assembly = assemble_global(model)
        tampered = dataclasses.replace(
            assembly, a_y=assembly.a_y.replaced_product("D1", "D2", [("[pt]", 2)])
        )
        report = verify_assembly(tampered)
        failing = report.check("smooth-products")
        assert not report.passed and not failing.passed
        assert failing.witness["left"] == "D1" and failing.witness["right"] == "D2"

    _announce(6, "tamper tests flip the reports to fail with correct witnesses", body)


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k not in ("seed", "timings")}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def test_criterion_7_seed_determinism(tmp_path, capsys):
    def body():
        out0 = tmp_path / "corpus0.json"
        out1 = tmp_path / "corpus1.json"
        assert cli_main(["corpus", "--seed", "0", "--out", str(out0)]) == 0
        assert cli_main(["corpus", "--seed", "424242", "--out", str(out1)]) == 0
        capsys.readouterr()
        a = json.loads(out0.read_text())
        b = json.loads(out1.read_text())
        assert a["manifest"]["seed"] == 0 and b["manifest"]["seed"] == 424242
        stripped_a = json.dumps(_strip_volatile(a), sort_keys=True)
        stripped_b = json.dumps(_strip_volatile(b), sort_keys=True)
        assert stripped_a == stripped_b
        # canonical character tables are byte-identical in particular
        for ea, eb in zip(a["groups"], b["groups"]):
            assert ea["chartable"]["rows"] == eb["chartable"]["rows"]

    _announce(7, "corpus reports identical across Dixon seeds (up to seed/timings)", body)


def test_criterion_8_float_sanity_layer():
    def body():
        worst = 0.0
        for label in ADE_SUITE:
            report = verify_correspondence(ade_bundle(label).cmap)
            check = report.check("float-sanity")
            assert check.passed
            worst = max(worst, check.detail["max_error"])
        model = parse_surface(
            {
                "picard_rank": 1,
                "intersection_matrix": [[2]],
                "points": [{"id": "p", "type": "E7"}],
            }
        )
        report = verify_global(model)
        for check in report.checks:
            if check.name.endswith("float-sanity"):
                assert check.passed
                worst = max(worst, check.detail["max_error"])
        assert worst <= FLOAT_TOLERANCE

    _announce(8, "floating sanity layer agrees with exact results within 1e-9", body)
