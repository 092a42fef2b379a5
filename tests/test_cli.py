"""Command-line surface: exit codes, formats, determinism."""

import gc
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mckay import catalog, chartab, cli, correspondence, groups, linalg, orbifold, resolution
from mckay.catalog import EXTRA_GROUPS, ade_bundle
from mckay.chartab import EigenSplitError, TableConsistencyError
from mckay.cli import main
from mckay.cyclo import MAX_CONDUCTOR, MAX_EXPONENT, CycNum, rational
from mckay.groups import ADE_SUITE, GroupError
from mckay.orbifold import OrbifoldError
from mckay.surface import SurfaceConfigError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items() if k not in ("seed", "timings")}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def test_verify_local_pass(capsys):
    code, out, _ = run(capsys, "verify", "local", "--type", "A3")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    report = payload["report"]
    assert report["pass"] is True
    exact = [c for c in report["checks"] if not c.get("diagnostic")]
    assert len(exact) == 5
    assert all(c["pass"] for c in report["checks"])
    assert payload["phi"]["scale"] == 4


def test_verify_local_e8(capsys):
    code, out, _ = run(capsys, "verify", "local", "--type", "E8")
    assert code == 0
    report = json.loads(out)["report"]
    exact = [c for c in report["checks"] if not c.get("diagnostic")]
    assert len(exact) == 5 and all(c["pass"] for c in exact)
    # the certificate prime is recorded next to the Dixon prime, and differs
    info = report["info"]
    assert info["certificate_prime"] == ade_bundle("E8").table.certificate.prime
    assert info["certificate_prime"] % info["group"]["exponent"] == 1
    assert info["certificate_prime"] != info["dixon_prime"]


def test_verify_local_rejects_d3(capsys):
    code, _, err = run(capsys, "verify", "local", "--type", "D3")
    assert code == 2
    assert "D_n requires n >= 4" in err


def test_unknown_label(capsys):
    code, _, err = run(capsys, "verify", "local", "--type", "B2")
    assert code == 2
    assert "unknown ADE label" in err


@pytest.mark.parametrize(
    "label, message",
    (
        ("A2000", "A2000 has order 2001, above the limit 2000; A_n requires n <= 1999"),
        ("D503", "D503 has order 2004, above the limit 2000; D_n requires n <= 502"),
    ),
)
def test_label_above_the_closure_cap_exits_2_before_building(capsys, label, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "group", "--type", label)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_label_past_the_int_digit_limit_exits_2_without_echoing_it(tmp_path, capsys):
    label = "A" + "9" * 5000
    message = "A_n with a 5000-digit n is above the limit 2000"
    assert run(capsys, "verify", "local", "--type", label) == (2, "", f"error: {message}\n")
    config = tmp_path / "surface.json"
    config.write_text(
        json.dumps(
            {"picard_rank": 0, "intersection_matrix": [], "points": [{"id": "p", "type": label}]}
        )
    )
    code, out, err = run(capsys, "verify", "global", "--config", str(config))
    assert (code, out, err) == (2, "", f"error: points[0].type: {message}\n")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


def test_mckay_dot_output(capsys):
    code, out, _ = run(capsys, "mckay", "--type", "D4", "--format", "dot")
    assert code == 0
    assert out.startswith("graph mckay {")
    assert out.count("[label=") == 5
    assert "shape=doublecircle" in out
    center_edges = [line for line in out.splitlines() if "--" in line]
    assert len(center_edges) == 4
    assert all("v4" in line for line in center_edges)


def test_mckay_dot_written_to_out(tmp_path, capsys):
    path = tmp_path / "d4.dot"
    code, out, _ = run(capsys, "mckay", "--type", "D4", "--format", "dot", "--out", str(path))
    assert code == 0 and out == ""
    _, expected, _ = run(capsys, "mckay", "--type", "D4", "--format", "dot")
    assert path.read_text() == expected


@pytest.mark.parametrize("fmt", ("dot", "json"))
def test_mckay_dot_file_option(tmp_path, capsys, fmt):
    # --dot always writes the DOT file; stdout keeps the JSON report, if any
    path = tmp_path / "d4.dot"
    code, out, _ = run(capsys, "mckay", "--type", "D4", "--format", fmt, "--dot", str(path))
    _, dot, _ = run(capsys, "mckay", "--type", "D4", "--format", "dot")
    _, report, _ = run(capsys, "mckay", "--type", "D4", "--format", "json")
    assert code == 0 and path.read_text() == dot
    assert out == ("" if fmt == "dot" else report)


def test_mckay_json(capsys):
    code, out, _ = run(capsys, "mckay", "--type", "A3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"]["affine"] == "A3"
    assert payload["graph"]["finite"] == "A3"
    assert len(payload["graph"]["vertices"]) == 4


def test_group_info(capsys):
    code, out, _ = run(capsys, "group", "--type", "E6")
    assert code == 0
    info = json.loads(out)["group"]
    assert info["order"] == 24
    assert info["exponent"] == 12
    assert len(info["classes"]) == 7


def test_chartable_command(capsys):
    code, out, _ = run(capsys, "chartable", "--type", "A2")
    assert code == 0
    table = json.loads(out)["table"]
    assert table["degrees"] == [1, 1, 1]
    assert len(table["rows"]) == 3


def test_local_dump_resolution(capsys):
    code, out, _ = run(capsys, "local", "--type", "A2", "--dump-resolution")
    assert code == 0
    structure = json.loads(out)["resolution_structure"]
    assert structure["E1"]["E1"]["[pt]"] == "-2"
    assert structure["E1"]["E2"]["[pt]"] == "1"


def test_minor_from_group_file(tmp_path, capsys):
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    path = tmp_path / "z6.json"
    path.write_text(json.dumps({"cayley": table}))
    code, out, _ = run(capsys, "minor", "--group", str(path))
    assert code == 0
    assert json.loads(out)["report"]["pass"] is True


def test_minor_from_a_group_file_with_a_vanishing_period(tmp_path, capsys):
    # Z9 x| Z3 with b acting by x -> x^4, (a, b) labeled a + 9b: the class
    # {x, x^4, x^7} has stabilizer {1, 4, 7}, where the Gaussian period
    # zeta_9 + zeta_9^4 + zeta_9^7 is 0 and cannot be the primitive element
    pairs = [(i % 9, i // 9) for i in range(27)]
    table = [[(a + pow(4, b, 9) * c) % 9 + 9 * ((b + d) % 3) for c, d in pairs] for a, b in pairs]
    path = tmp_path / "z9z3.json"
    path.write_text(json.dumps({"cayley": table}))
    code, out, _ = run(capsys, "minor", "--group", str(path))
    assert code == 0
    t = chartab.character_table(groups.group_from_cayley(table))
    minor = [[t.rows[i][c] for c in range(1, t.size)] for i in range(1, t.size)]
    (check,) = json.loads(out)["report"]["checks"]
    assert check["detail"]["determinant"] == linalg.determinant(minor).to_json()


def test_group_from_generator_file(tmp_path, capsys):
    gens = {
        "generators": [
            [
                [{"conductor": 4, "coeffs": {"1": "1"}}, {"conductor": 1, "coeffs": {}}],
                [{"conductor": 1, "coeffs": {}}, {"conductor": 4, "coeffs": {"3": "1"}}],
            ]
        ]
    }
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(gens))
    code, out, _ = run(capsys, "group", "--group", str(path))
    assert code == 0
    assert json.loads(out)["group"]["order"] == 4


def test_unreadable_file(capsys):
    code, _, err = run(capsys, "verify", "global", "--config", "/nonexistent/surface.json")
    assert code == 2
    assert "error" in err


def test_verify_global_config(tmp_path, capsys):
    cfg = {
        "picard_rank": 1,
        "intersection_matrix": [[1]],
        "points": [{"id": "p", "type": "A1"}],
    }
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "verify", "global", "--config", str(path))
    assert code == 0
    assert json.loads(out)["report"]["pass"] is True


def test_bad_surface_config_exits_2(tmp_path, capsys):
    cfg = {"picard_rank": 2, "intersection_matrix": [[0, 1], [2, 0]], "points": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "verify", "global", "--config", str(path))
    assert code == 2
    assert "not symmetric" in err


@pytest.mark.parametrize(
    "cfg, path",
    [
        (
            {
                "picard_rank": True,
                "intersection_matrix": [[True]],
                "points": [{"id": "p", "type": "A1"}],
            },
            "picard_rank",
        ),
        (
            {
                "picard_rank": 1,
                "intersection_matrix": [[True]],
                "points": [{"id": "p", "type": "A1"}],
            },
            "intersection_matrix[0][0]",
        ),
    ],
)
def test_boolean_surface_config_exits_2(tmp_path, capsys, cfg, path):
    config = tmp_path / "bool.json"
    config.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "verify", "global", "--config", str(config))
    assert code == 2 and out == ""
    assert f"error: {path}: " in err


def test_corpus_command(capsys):
    code, out, _ = run(capsys, "corpus", "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["manifest"]["inputs"] == list(ADE_SUITE + EXTRA_GROUPS)
    assert len(payload["manifest"]["inputs"]) == 26
    # --jobs is accepted and has no effect
    code, out2, _ = run(capsys, "corpus", "--jobs", "2")
    assert code == 0
    assert strip_volatile(json.loads(out2)) == strip_volatile(payload)
    # the report writer gives the bytes of json.dumps(sort_keys=True, indent=2)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _written(value):
    return cli._json_text(value, "\n")


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example(-0.0)
@example(5e-324)
@example(1e308)
@example([True, False, None, 0.1, float("nan"), float("-inf")])
def test_report_writer_matches_json_dumps(value):
    assert _written(value) == json.dumps(value, sort_keys=True, indent=2)


def _as_json(value):
    """``value`` with each CycNum replaced by its ``to_json()``."""
    if isinstance(value, CycNum):
        return value.to_json()
    if isinstance(value, dict):
        return {k: _as_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_json(v) for v in value]
    return value


# conductors 1-60 (phi up to 16, so stored exponents reach 10 and beyond),
# fractional and negative coefficients, and zero values; CycNum reduces the
# drawn exponents mod N
_cycnums = st.builds(
    CycNum,
    st.integers(1, 60),
    st.dictionaries(
        st.integers(0, 59),
        st.fractions(min_value=-40, max_value=40, max_denominator=12),
        max_size=8,
    ),
)
_report_values = st.recursive(
    _json_scalars | _cycnums,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_report_values)
@example(CycNum(60, {13: Fraction(-7, 3), 2: 1, 11: Fraction(5, 6)}))
@example({"rows": [[rational(0), CycNum(44, {10: 3, 2: -1})], (CycNum(1, {0: Fraction(4, 6)}),)]})
def test_report_writer_prints_cycnum_as_its_json(value):
    """A CycNum anywhere in a payload is written as json.dumps writes its
    ``to_json()`` at that depth: keys in string order, "coeffs": {} for 0."""
    assert _written(value) == json.dumps(_as_json(value), sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "keys",
    [
        (1, 2, -30),
        (0.5, 1.5, float("inf")),
        (True,),
        (False,),
        (None,),
        (10**30, 7),
    ],
)
def test_report_writer_non_str_keys_match_json_dumps(keys):
    value = {"outer": {k: [k, "\u00e9\n"] for k in keys}, "é": {}}
    assert _written(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "bad", [{(1, 2): 0}, {"a": {frozenset(): 1}}, {"a": object()}, [{1, 2}], {None: 1, True: 2}]
)
def test_report_writer_rejects_what_json_dumps_rejects(bad):
    with pytest.raises(TypeError) as expected:
        json.dumps(bad, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        _written(bad)
    assert str(got.value) == str(expected.value)


def test_byte_determinism_same_seed(capsys):
    # timings are the only run-dependent bytes; everything else is canonical
    _, out1, _ = run(capsys, "verify", "local", "--type", "D5", "--seed", "3")
    _, out2, _ = run(capsys, "verify", "local", "--type", "D5", "--seed", "3")
    a, b = json.loads(out1), json.loads(out2)
    assert strip_volatile(a) == strip_volatile(b)
    assert json.dumps(strip_volatile(a), sort_keys=True) == json.dumps(
        strip_volatile(b), sort_keys=True
    )


def test_determinism_across_seeds(capsys):
    _, out1, _ = run(capsys, "chartable", "--type", "D6", "--seed", "1")
    _, out2, _ = run(capsys, "chartable", "--type", "D6", "--seed", "99")
    a = strip_volatile(json.loads(out1))
    b = strip_volatile(json.loads(out2))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- exit codes: user errors (2) against internal inconsistencies (3) -----------


@pytest.mark.parametrize(
    "exc",
    [
        TableConsistencyError("row orthogonality fails at (0, 1)"),
        EigenSplitError("eigenspace dimensions do not add up"),
        OrbifoldError("age 3 outside the SL2 surface range"),
        ArithmeticError("norm is not a nonzero rational"),
        ZeroDivisionError("division by zero in cyclotomic field"),
    ],
)
def test_internal_inconsistency_exits_3(monkeypatch, capsys, exc):
    def broken(table):
        raise exc

    monkeypatch.setattr(cli, "minor_report", broken)
    code, out, err = run(capsys, "minor", "--type", "A2")
    assert code == cli.INTERNAL_ERROR == 3
    assert out == ""
    assert err.startswith("internal error:") and str(exc) in err


@pytest.mark.parametrize(
    "exc",
    [
        GroupError("generator matrix has determinant != 1"),
        SurfaceConfigError("points[0].type", "must be an ADE label string"),
        OSError("disk unreadable"),
    ],
)
def test_user_error_exits_2(monkeypatch, capsys, exc):
    def broken(table):
        raise exc

    monkeypatch.setattr(cli, "minor_report", broken)
    code, out, err = run(capsys, "minor", "--type", "A2")
    assert code == cli.USAGE_ERROR == 2
    assert out == ""
    assert err.startswith("error:") and str(exc) in err


def test_bad_json_group_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"cayley": [[0, 1], [1, 0]')
    code, _, err = run(capsys, "minor", "--group", str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command", [("minor", "--group"), ("verify", "global", "--config")]
)
def test_deeply_nested_json_exits_2_naming_the_file(tmp_path, capsys, command):
    # deeper than json.load can recurse
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"picard_rank": 1, "intersection_matrix": [[1]], ', "Expecting property name"),
        (b"\xff\xfe", "'utf-8' codec can't decode"),
        # the decoder's ValueError for an integer literal past 4,300 digits
        (b'{"picard_rank": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300"),
    ],
    ids=["truncated", "not-utf-8", "5000-digits"],
)
def test_undecodable_surface_config_exits_2_naming_the_file(tmp_path, capsys, content, message):
    path = tmp_path / "surface.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "verify", "global", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: {message}")


def test_group_file_conductor_above_bound_exits_2(tmp_path, capsys):
    big = {"conductor": MAX_CONDUCTOR + 1, "coeffs": {"1": "1"}}
    one = {"conductor": 1, "coeffs": {"0": "1"}}
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({"generators": [[[big, one], [one, big]]]}))
    start = time.perf_counter()
    code, _, err = run(capsys, "minor", "--group", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert str(path) in err and "generators[0][0][0]" in err
    assert str(MAX_CONDUCTOR) in err


def test_group_file_coefficient_exponent_above_bound_exits_2(tmp_path, capsys):
    # Fraction would expand 1e10000000 into a power of ten for seconds
    big = {"conductor": 1, "coeffs": {"0": "1e10000000"}}
    one = {"conductor": 1, "coeffs": {"0": "1"}}
    zero = {"conductor": 1, "coeffs": {}}
    path = tmp_path / "hostile.json"
    gens = [[[one, zero], [zero, one]], [[one, big], [zero, one]]]
    path.write_text(json.dumps({"generators": gens}))
    start = time.perf_counter()
    code, out, err = run(capsys, "minor", "--group", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: generators[1][0][1]: ")
    assert str(MAX_EXPONENT) in err


def test_group_file_common_conductor_above_bound_exits_2(tmp_path, capsys):
    # each entry is within the bound, but the closure would work at 1019 * 1021
    a = {"conductor": 1019, "coeffs": {"1": "1"}}
    b = {"conductor": 1021, "coeffs": {"1": "1"}}
    zero = {"conductor": 1, "coeffs": {}}
    path = tmp_path / "coprime.json"
    path.write_text(json.dumps({"generators": [[[a, zero], [zero, b]]]}))
    start = time.perf_counter()
    code, _, err = run(capsys, "minor", "--group", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert str(path) in err and str(1019 * 1021) in err


# column 1 repeats 1; row 1 is one entry short
BAD_COLUMN = {"cayley": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}
SHORT_ROW = {"cayley": [[0, 1], [1]]}


@pytest.mark.parametrize(
    "body",
    [
        {"cayley": 5},
        {"generators": 5},
        {"cayley": [5]},
        {"generators": [[1, 2]]},
        {"cayley": [[0, 1], [1, 0.0]]},
        [1, 2],
        {},
        BAD_COLUMN,
        SHORT_ROW,
        {"generators": [[[{"conductor": True, "coeffs": {"0": "1"}}] * 2] * 2]},
    ],
)
def test_malformed_group_file_exits_2_naming_the_file(tmp_path, capsys, body):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(body))
    code, out, err = run(capsys, "minor", "--group", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "body, position", [(BAD_COLUMN, "column 1 "), (SHORT_ROW, "row 1 ")]
)
def test_latin_square_rejection_names_its_position(tmp_path, capsys, body, position):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(body))
    code, _, err = run(capsys, "minor", "--group", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: {position}")


def _relabeled_file(path, table, seed):
    """Write ``table`` relabeled by a seeded permutation as a Cayley group file."""
    n = len(table)
    sigma = list(range(n))
    random.Random(seed).shuffle(sigma)
    relabeled = [[0] * n for _ in range(n)]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            relabeled[sigma[i]][sigma[j]] = sigma[v]
    path.write_text(json.dumps({"cayley": relabeled}))
    return path


def _product_table(a, b):
    m = len(b)
    return [
        [a[i][k] * m + b[j][l] for k in range(len(a)) for l in range(m)]
        for i in range(len(a))
        for j in range(m)
    ]


S4_TABLE = groups.symmetric_group(4).cayley
PARITY_TABLES = {
    "S4": S4_TABLE,
    "S4xZ3": _product_table(S4_TABLE, groups.cyclic_group(3).cayley),
    "S4xS4": _product_table(S4_TABLE, S4_TABLE),
}
# Z4 with row 2's entry 0 (outside row 0 and the generator row 1) replaced
Z4_WITH = '{"cayley": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, %s, 1], [3, 0, 1, 2]]}'
MALFORMED_GROUP_FILES = {
    "float": Z4_WITH % "0.0",
    "true": Z4_WITH % "true",
    "null": Z4_WITH % "null",
    "negative": Z4_WITH % "-1",
    "minus-n": Z4_WITH % "-4",
    "n": Z4_WITH % "4",
    "5000-digits": Z4_WITH % ("1" + "0" * 4999),
    "truncated": (Z4_WITH % "0")[:-2],
    "not-utf-8": b'{"cayley": \xff\xfe}',
    "deep-list": "[" * 100_000 + "]" * 100_000,
    "deep-int": '{"cayley": ' + "[" * 100_000 + "0" + "]" * 100_000 + "}",
}


def _file_outcomes(capsys, path):
    """Exit code, stderr and report minus seed and timings of ``group`` and
    ``minor`` on a group file."""
    outcomes = []
    for command in ("group", "minor"):
        code, out, err = run(capsys, command, "--group", str(path))
        outcomes.append((code, err, strip_volatile(json.loads(out)) if out else out))
    return outcomes


def _use_the_plain_decoder(monkeypatch):
    """The oracle: ``json.load`` without the int-literal hook."""
    load = json.load
    monkeypatch.setattr(cli.json, "load", lambda fh, **_: load(fh))


@pytest.mark.parametrize("name", sorted(PARITY_TABLES))
def test_group_file_decode_matches_the_plain_decoder(tmp_path, capsys, monkeypatch, name):
    path = _relabeled_file(tmp_path / f"{name}.json", PARITY_TABLES[name], len(name))
    decoded = []
    parse = cli._parse_group_file

    def recorded(data, file_name):
        decoded.append(data["cayley"])
        return parse(data, file_name)

    monkeypatch.setattr(cli, "_parse_group_file", recorded)
    hooked = _file_outcomes(capsys, path)
    _use_the_plain_decoder(monkeypatch)
    assert _file_outcomes(capsys, path) == hooked
    assert [code for code, _, _ in hooked] == [0, 0]
    # one object per distinct value with the hook; the plain decoder makes
    # one per entry above the interpreter's small-int cache
    n = len(PARITY_TABLES[name])
    objects = [len({id(v) for row in table for v in row}) for table in decoded]
    assert objects[:2] == [n, n]
    assert (objects[2] > n) == (n > 257)


@pytest.mark.parametrize("name", sorted(MALFORMED_GROUP_FILES))
def test_malformed_group_file_matches_the_plain_decoder(tmp_path, capsys, monkeypatch, name):
    body = MALFORMED_GROUP_FILES[name]
    path = tmp_path / "malformed.json"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    hooked = _file_outcomes(capsys, path)
    _use_the_plain_decoder(monkeypatch)
    assert _file_outcomes(capsys, path) == hooked
    assert all(code == 2 and err.startswith(f"error: {path}: ") and out == "" for code, err, out in hooked)


GC_STATE_FILES = dict(
    MALFORMED_GROUP_FILES,
    valid=json.dumps({"cayley": S4_TABLE}),
    generators='{"generators": [[[{"conductor": 1, "coeffs": {"0": "2"}}]]]}',
    **{"not-an-object": "[]", "no-table": "{}"},
)


@pytest.mark.parametrize("enabled", (True, False))
@pytest.mark.parametrize("name", sorted(GC_STATE_FILES))
def test_group_file_load_restores_the_callers_collector_state(tmp_path, monkeypatch, name, enabled):
    """Decode and validation run with the cyclic collector paused; on
    success, on every rejection (decode errors, bad tables, bad generators,
    JSON nested too deeply) and with the collector already off, the
    caller's state comes back."""
    body = GC_STATE_FILES[name]
    path = tmp_path / "group.json"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    during = []
    parse = cli._parse_group_file

    def recorded(data, file_name):
        during.append(gc.isenabled())
        return parse(data, file_name)

    monkeypatch.setattr(cli, "_parse_group_file", recorded)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            group = cli._load_group_file(str(path))
        except GroupError as exc:
            assert name != "valid", exc
        else:
            assert name == "valid" and group.order == 24
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert not any(during)
    assert during or name in ("truncated", "not-utf-8", "5000-digits", "deep-list", "deep-int")


def test_unsplittable_eigenspaces_exit_3(monkeypatch, tmp_path, capsys):
    def identities_only(group, i):
        return [((k, 1),) for k in range(len(group.conjugacy.classes))]

    monkeypatch.setattr(chartab, "_class_matrix", identities_only)
    path = tmp_path / "z3.json"
    path.write_text(json.dumps({"cayley": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    code, out, err = run(capsys, "minor", "--group", str(path))
    assert code == cli.INTERNAL_ERROR == 3
    assert out == ""
    assert err.startswith("internal error: EigenSplitError:")


def test_large_non_associative_loop_exits_2_with_witness(tmp_path, capsys):
    # Z_520 with the intercalate at rows/cols {1, 261} swapped: a Latin loop
    n = 520
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    for r, c in ((1, 1), (261, 1)):
        table[r][c], table[r][261] = table[r][261], table[r][c]
    path = tmp_path / "loop520.json"
    path.write_text(json.dumps({"cayley": table}))
    code, _, err = run(capsys, "minor", "--group", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: table is not associative at (")
    a, b, c = (int(x) for x in err.split("(")[1].split(")")[0].split(","))
    assert table[table[a][b]][c] != table[a][table[b][c]]


# every builder a bundle field calls, and the one minor elimination
BUILDERS = (
    (chartab, "character_table"),
    (chartab, "mckay_graph"),
    (resolution, "local_resolution_algebra"),
    (orbifold, "local_orbifold_algebra"),
    (orbifold, "invariant_subalgebra"),
    (correspondence, "_scaled_minor"),
    (linalg, "determinant"),
)


@pytest.fixture
def built(monkeypatch):
    """Calls per builder, counted in every module that holds it, from empty
    caches."""
    calls = {}
    modules = [m for n, m in sys.modules.items() if n.startswith("mckay.")]
    for owner, name in BUILDERS:
        original = getattr(owner, name)
        calls[name] = 0

        def counted(*args, _fn=original, _name=name):
            calls[_name] += 1
            return _fn(*args)

        for mod in modules:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    catalog.clear_caches()
    yield calls
    catalog.clear_caches()


@pytest.mark.parametrize(
    "argv, expected",
    (
        (("group", "--type", "D4"), {}),
        (("chartable", "--type", "D4"), {"character_table": 1}),
        (("minor", "--type", "D4"), {"character_table": 1, "determinant": 1}),
        (("mckay", "--type", "D4"), {"character_table": 1, "mckay_graph": 1}),
        (
            ("local", "--type", "D4", "--dump-resolution"),
            {"character_table": 1, "mckay_graph": 1, "local_resolution_algebra": 1},
        ),
    ),
    ids=("group", "chartable", "minor", "mckay", "local-dump-resolution"),
)
def test_each_command_builds_only_what_it_reads(built, capsys, argv, expected):
    assert run(capsys, *argv)[0] == 0
    assert {name: n for name, n in built.items() if n} == expected


def _z2_power_file(tmp_path, k):
    """A group file with the Cayley table of (Z2)^k: 2^k singleton classes."""
    n = 2**k
    path = tmp_path / f"z2-{k}.json"
    path.write_text(json.dumps({"cayley": [[i ^ j for j in range(n)] for i in range(n)]}))
    return path


@pytest.mark.parametrize("command", ("chartable", "minor"))
def test_group_file_above_the_class_bound_exits_2_before_the_table(built, tmp_path, capsys, command):
    path = _z2_power_file(tmp_path, 9)
    code, out, err = run(capsys, command, "--group", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: 512 conjugacy classes, above the limit 256 for a character table\n"
    assert built["character_table"] == 0


def test_group_command_reads_a_group_file_above_the_class_bound(tmp_path, capsys):
    path = _z2_power_file(tmp_path, 9)
    code, out, _ = run(capsys, "group", "--group", str(path))
    assert code == 0
    assert len(json.loads(out)["group"]["classes"]) == 512


@pytest.mark.parametrize("bound, expected", ((5, 0), (4, 2)))
def test_the_class_bound_admits_exactly_its_count(monkeypatch, tmp_path, capsys, bound, expected):
    monkeypatch.setattr(cli, "MAX_FILE_CLASSES", bound)
    path = tmp_path / "z5.json"
    path.write_text(json.dumps({"cayley": [[(i + j) % 5 for j in range(5)] for i in range(5)]}))
    assert run(capsys, "minor", "--group", str(path))[0] == expected
    # ADE labels and stock groups keep their own bounds
    assert run(capsys, "chartable", "--type", "A5")[0] == 0
    assert run(capsys, "minor", "--name", "S4")[0] == 0


def test_verify_local_then_minor_build_one_table_and_one_determinant(built, capsys):
    assert run(capsys, "verify", "local", "--type", "D4")[0] == 0
    assert run(capsys, "minor", "--type", "D4")[0] == 0
    assert built["character_table"] == built["determinant"] == 1


def test_q8_is_the_d4_bundle(built, capsys):
    assert catalog.extra_bundle("Q8") is catalog.ade_bundle("D4")
    assert run(capsys, "minor", "--name", "Q8")[0] == 0
    assert run(capsys, "chartable", "--type", "D4")[0] == 0
    assert built["character_table"] == 1


def test_label_spellings_share_one_bundle(capsys):
    catalog.clear_caches()
    reports = []
    for spelling in ("a_3", "A_3", "A3"):
        code, out, _ = run(capsys, "verify", "local", "--type", spelling)
        reports.append((code, strip_volatile(json.loads(out))))
    assert catalog.ade_bundle.cache_info().currsize == 1
    assert reports[0] == reports[1] == reports[2]
    assert reports[0][0] == 0


@pytest.mark.parametrize("command", ("group", "chartable", "minor"))
@pytest.mark.parametrize(
    "sources",
    (("--type", "D4", "--name", "S4"), ("--group", "F", "--name", "S4"), ("--type", "D4", "--group", "F")),
    ids=("type+name", "group+name", "type+group"),
)
def test_two_group_sources_exit_2(capsys, command, sources):
    with pytest.raises(SystemExit) as err:
        main([command, *sources])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_chartable_and_minor_by_name_share_one_table(monkeypatch, capsys):
    calls = []
    original = chartab.character_table

    def counted(group):
        calls.append(group.name)
        return original(group)

    monkeypatch.setattr(correspondence, "character_table", counted)
    catalog.clear_caches()
    code, out, _ = run(capsys, "chartable", "--name", "S4")
    assert code == 0 and json.loads(out)["table"]["group"]["order"] == 24
    assert run(capsys, "minor", "--name", "S4")[0] == 0
    assert len(calls) == 1


# -- one parser per process -----------------------------------------------------------


def _call_outcome(code, out_path, err):
    report = strip_volatile(json.loads(out_path.read_text())) if out_path.exists() else None
    return code, report, err


def test_successive_calls_in_one_process_match_separate_processes(tmp_path, capsys):
    """The parser is built once per process; no option value of one call
    reaches the next, so each report is the one a fresh process writes."""
    config = tmp_path / "surface.json"
    config.write_text(json.dumps({
        "picard_rank": 1,
        "intersection_matrix": [[1]],
        "points": [{"id": "p", "type": "A1"}, {"id": "q", "type": "E6"}],
    }))
    argvs = (
        ["group", "--name", "S4", "--seed", "7"],
        ["group", "--type", "A3"],
        ["verify", "global", "--config", str(config)],
        ["minor", "--type", "A3", "--name", "S4"],
    )
    in_process = []
    for k, argv in enumerate(argvs):
        out = tmp_path / f"in-process-{k}.json"
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        in_process.append(_call_outcome(code, out, capsys.readouterr().err))
    assert cli.build_parser() is cli.build_parser()
    source = str(Path(cli.__file__).resolve().parents[1])
    paths = [source] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    separate = []
    for k, argv in enumerate(argvs):
        out = tmp_path / f"separate-{k}.json"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from mckay.cli import main; sys.exit(main())",
             *argv, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        separate.append(_call_outcome(proc.returncode, out, proc.stderr))
    assert [code for code, _, _ in in_process] == [0, 0, 0, 2]
    assert in_process == separate
    assert in_process[1][1]["group"]["name"] == "A3"


def test_parsed_options_do_not_carry_over():
    parser = cli.build_parser()
    first = vars(parser.parse_args(["group", "--name", "S4", "--seed", "7", "--out", "x.json"]))
    second = vars(parser.parse_args(["group", "--type", "A3"]))
    assert first["name"] == "S4" and first["seed"] == 7
    assert {k: second[k] for k in ("type", "name", "group", "seed", "out")} == {
        "type": "A3", "name": None, "group": None, "seed": 0, "out": None,
    }
