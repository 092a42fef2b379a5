"""Command-line interface: inspection, local/global verification, corpus runs.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 usage or
input error, 3 internal inconsistency (a character table, eigenspace split or
orbifold ring that contradicts itself, or exact arithmetic that fails its own
check), which is a fault of the program and not of the input.  The program
uses no randomness (--seed is only recorded); reports are byte-identical
across runs and seeds up to the recorded seed and timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from math import lcm

from . import __version__
from .catalog import EXTRA_GROUPS, ade_bundle, extra_bundle
from .chartab import CharacterTableError, EigenSplitError, TableConsistencyError
from .correspondence import Bundle, minor_report, verify_correspondence
from .cyclo import MAX_CONDUCTOR, CycNum
from .groups import (
    ADE_SUITE,
    FiniteGroup,
    GroupError,
    group_from_cayley,
    group_from_generators,
    parse_ade_label,
)
from .orbifold import OrbifoldError
from .surface import SurfaceConfigError, load_surface, verify_global

USAGE_ERROR = 2
INTERNAL_ERROR = 3

#: the most conjugacy classes m of a group file whose character table is
#: built: the table holds m^2 values, and the split's characteristic
#: polynomials and the certificate's row orthogonality take O(m^3) steps
MAX_FILE_CLASSES = 256

# Raised when the program contradicts itself, whatever the input; checked
# before the user errors, since EigenSplitError and TableConsistencyError are
# CharacterTableErrors.
_INTERNAL = (EigenSplitError, TableConsistencyError, OrbifoldError, ArithmeticError)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_encode_str = json.encoder.encode_basestring_ascii


def _json_key(key) -> str:
    """A dict key as the json module writes it: str, float, bool, None and
    int keys become strings, any other key is a TypeError."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


@cache
def _string_order(d: int) -> tuple[int, ...]:
    """range(d) in the order of its decimal strings, as ``sort_keys`` sorts."""
    return tuple(sorted(range(d), key=str))


def _cycnum_text(v: CycNum, indent: str) -> str:
    """``json.dumps(v.to_json(), sort_keys=True, indent=2)`` nested at
    ``indent``; an integral value is written from its numerators, keys in
    string order ("10" before "2"), with no gcd."""
    if v.den == 1:
        num = v.num
        terms = [f'"{i}": "{num[i]}"' for i in _string_order(len(num)) if num[i]]
    else:
        terms = [f'"{i}": "{c}"' for i, c in sorted(v.to_json()["coeffs"].items())]
    inner = indent + "  "
    deeper = inner + "  "
    coeffs = f"{{{deeper}{f',{deeper}'.join(terms)}{inner}}}" if terms else "{}"
    return f'{{{inner}"coeffs": {coeffs},{inner}"conductor": {v.conductor}{indent}}}'


def _json_text(value, indent: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, nested at ``indent``
    (a newline and the spaces of the enclosing level).

    One recursive pass in place of the pure-Python encoder that ``indent``
    forces on ``json.dumps``: strings through the C string escaper, ints,
    finite floats (``__repr__``) and literals as ``json`` writes them, NaN
    and ±inf through ``json.dumps``, a ``CycNum`` as its ``to_json()``;
    lists and tuples are arrays, and dict items are sorted by key as
    ``json.dumps`` sorts them.  Each container is joined from its items'
    text, so no list of small pieces outlives it.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if type(value) is CycNum:
        return _cycnum_text(value, indent)
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    if type(value) is float and value - value == 0:  # finite: nan and ±inf give nan
        return float.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [
            f"{_encode_str(k if type(k) is str else _json_key(k))}: {_json_text(v, inner)}"
            for k, v in sorted(value.items())
        ]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return f"[{inner}{(',' + inner).join([_json_text(v, inner) for v in value])}{indent}]"
    return json.dumps(value)


def _dump(payload: dict, out_path: str | None) -> None:
    _emit(_json_text(payload, "\n") + "\n", out_path)


def _load_group_file(path: str) -> FiniteGroup:
    """Load a group file; every rejection of its content names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return _parse_group_file(data, str(path))
    except ValueError as exc:  # a GroupError, or undecodable text or JSON
        raise GroupError(f"{path}: {exc}") from exc
    except RecursionError as exc:  # JSON nested deeper than the parser recurses
        raise GroupError(f"{path}: JSON nested too deeply") from exc


def _parse_group_file(data, name: str) -> FiniteGroup:
    if not isinstance(data, dict):
        raise GroupError("group file must contain a JSON object")
    if "cayley" in data:
        return group_from_cayley(data["cayley"], name=name)
    if "generators" in data:
        gens = data["generators"]
        if not isinstance(gens, list):
            raise GroupError("generators must be a list of 2x2 matrices")
        mats = []
        conductor = 1
        for i, matrix in enumerate(gens):
            if not (
                isinstance(matrix, list)
                and len(matrix) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in matrix)
            ):
                raise GroupError(f"generators[{i}] is not a 2x2 list of lists")
            mat = []
            for r, row in enumerate(matrix):
                entries = []
                for c, entry in enumerate(row):
                    try:
                        entries.append(CycNum.from_json(entry))
                    except ValueError as exc:
                        raise GroupError(f"generators[{i}][{r}][{c}]: {exc}") from exc
                    conductor = lcm(conductor, entries[-1].conductor)
                mat.append(entries)
            mats.append(mat)
        # the closure works at the common conductor of all entries
        if conductor > MAX_CONDUCTOR:
            raise GroupError(
                f"generator entries span conductor {conductor}, "
                f"above the limit {MAX_CONDUCTOR}"
            )
        return group_from_generators(mats, name=name)
    raise GroupError("group file needs a 'cayley' table or 'generators' matrices")


def _resolve_bundle(args) -> Bundle:
    """The cached bundle of an ADE type (any spelling) or stock group, or a new
    one of a group file; a bundle builds only the fields a handler reads."""
    if args.type:
        kind, n = parse_ade_label(args.type)
        return ade_bundle(f"{kind}{n}")
    if args.group:
        return Bundle(_load_group_file(args.group))
    if args.name:
        return extra_bundle(args.name)
    raise GroupError("no group specified; use --type, --group or --name")


def _resolve_table(args):
    """The character table of the named group.  A group file with more than
    MAX_FILE_CLASSES classes is rejected once its classes are known, before
    its table is built."""
    bundle = _resolve_bundle(args)
    if args.group:
        m = len(bundle.group.conjugacy.classes)
        if m > MAX_FILE_CLASSES:
            raise GroupError(
                f"{args.group}: {m} conjugacy classes, above the limit "
                f"{MAX_FILE_CLASSES} for a character table"
            )
    return bundle.table


def _group_info(group: FiniteGroup) -> dict:
    conj = group.conjugacy
    return {
        "name": group.name,
        "order": group.order,
        "exponent": conj.exponent,
        "classes": [
            {
                "index": i,
                "size": conj.sizes[i],
                "representative": conj.representatives[i],
                "element_order": group.element_order[conj.representatives[i]],
            }
            for i in range(len(conj.classes))
        ],
    }


def _table_payload(table) -> dict:
    return {
        "group": _group_info(table.group),
        "degrees": list(table.degrees),
        "dixon_prime": table.prime,
        "rows": [list(row) for row in table.rows],
    }


def _graph_dot(graph) -> str:
    lines = ["graph mckay {"]
    for v in range(graph.size):
        mark = " shape=doublecircle" if v == graph.trivial_vertex else ""
        lines.append(f'  v{v} [label="{graph.dims[v]}"{mark}];')
    for v in range(graph.size):
        for w in range(v + 1, graph.size):
            for _ in range(graph.adjacency[v][w]):
                lines.append(f"  v{v} -- v{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _graph_payload(graph) -> dict:
    return {
        "affine": graph.affine_label,
        "finite": graph.affine_label,
        "trivial_vertex": graph.trivial_vertex,
        "vertices": [{"index": v, "dim": graph.dims[v]} for v in range(graph.size)],
        "edges": [
            [v, w, graph.adjacency[v][w]]
            for v in range(graph.size)
            for w in range(v + 1, graph.size)
            if graph.adjacency[v][w]
        ],
    }


# -- subcommand handlers ----------------------------------------------------------


def _cmd_group(args) -> int:
    group = _resolve_bundle(args).group
    _dump({"schema": 1, "command": "group", "group": _group_info(group)}, args.out)
    return 0


def _cmd_chartable(args) -> int:
    table = _resolve_table(args)
    _dump({"schema": 1, "command": "chartable", "table": _table_payload(table)}, args.out)
    return 0


def _cmd_mckay(args) -> int:
    graph = _resolve_bundle(args).graph
    if args.format == "json":
        _dump({"schema": 1, "command": "mckay", "graph": _graph_payload(graph)}, args.out)
    elif args.out or not args.dot:
        _emit(_graph_dot(graph), args.out)
    if args.dot:
        _emit(_graph_dot(graph), args.dot)
    return 0


def _cmd_local(args) -> int:
    bundle = _resolve_bundle(args)
    payload: dict = {"schema": 1, "command": "local", "group": _group_info(bundle.group)}
    if args.dump_orbifold:
        algebra = bundle.orbifold if args.full else bundle.invariant
        payload["orbifold_structure"] = algebra.structure_json()
    if args.dump_resolution:
        payload["resolution_structure"] = bundle.resolution.structure_json()
    if not (args.dump_orbifold or args.dump_resolution):
        payload["dimensions"] = {
            "resolution": bundle.resolution.dim,
            "orbifold_invariant": bundle.invariant.dim,
            "orbifold_full": bundle.orbifold.dim,
        }
    _dump(payload, args.out)
    return 0


def _verify_payload(report, seed: int, command: str) -> dict:
    return {
        "schema": 1,
        "command": command,
        "seed": seed,
        "report": report.to_dict(),
    }


def _cmd_verify_local(args) -> int:
    bundle = _resolve_bundle(args)
    report = verify_correspondence(bundle.cmap)
    payload = _verify_payload(report, args.seed, "verify local")
    payload["phi"] = bundle.cmap.payload()
    _dump(payload, args.out)
    return 0 if report.passed else 1


def _cmd_verify_global(args) -> int:
    model = load_surface(args.config)
    report = verify_global(model)
    _dump(_verify_payload(report, args.seed, "verify global"), args.out)
    return 0 if report.passed else 1


def _cmd_minor(args) -> int:
    report = minor_report(_resolve_table(args))
    payload = _verify_payload(report, args.seed, "minor")
    payload["determinant"] = report.checks[0].detail["determinant"]
    _dump(payload, args.out)
    return 0 if report.passed else 1


def _corpus_entry_ade(label: str) -> dict:
    bundle = ade_bundle(label)
    report = verify_correspondence(bundle.cmap)
    minor = minor_report(bundle.table)
    return {
        "label": label,
        "kind": "ade",
        "graph": _graph_payload(bundle.graph),
        "chartable": _table_payload(bundle.table),
        "verify": report.to_dict(),
        "minor": minor.to_dict(),
        "pass": report.passed and minor.passed,
    }


def _corpus_entry_extra(name: str) -> dict:
    table = extra_bundle(name).table
    minor = minor_report(table)
    return {
        "label": name,
        "kind": "extra",
        "chartable": _table_payload(table),
        "minor": minor.to_dict(),
        "pass": minor.passed,
    }


def _cmd_corpus(args) -> int:
    t0 = time.perf_counter()
    entries = [_corpus_entry_ade(label) for label in ADE_SUITE] + [
        _corpus_entry_extra(name) for name in EXTRA_GROUPS
    ]
    entries.sort(key=lambda e: (e["kind"], e["label"]))
    overall = all(e["pass"] for e in entries)
    payload = {
        "schema": 1,
        "command": "corpus",
        "manifest": {
            "inputs": list(ADE_SUITE + EXTRA_GROUPS),
            "seed": args.seed,
            "versions": {"mckay": __version__, "python": sys.version.split()[0]},
        },
        "groups": entries,
        "pass": overall,
        "timings": {"total_s": time.perf_counter() - t0},
    }
    _dump(payload, args.out)
    return 0 if overall else 1


# -- parser ------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument(
        "--seed", type=int, default=0, help="accepted and recorded in the report; has no effect"
    )
    parser.add_argument("--out", help="write the JSON report to this path")


def _add_source(parser):
    """--type, --group and --name: at most one of them names the group."""
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--type",
        help="ADE label: A_n (n >= 1), D_n (n >= 4), E6, E7 or E8, of order at most 2000",
    )
    source.add_argument("--group", help="JSON file with a Cayley table or SL2 generators")
    source.add_argument("--name", choices=EXTRA_GROUPS, help="stock corpus group")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` reads it
    and returns a new namespace each call, so no value passes between calls."""
    parser = argparse.ArgumentParser(
        prog="mckay",
        description="Exact verification of the multiplicative McKay correspondence",
    )
    parser.add_argument("--version", action="version", version=f"mckay {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="print order, exponent and conjugacy classes")
    _add_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("chartable", help="exact character table")
    _add_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_chartable)

    p = sub.add_parser("mckay", help="McKay graph with affine ADE classification")
    p.add_argument("--type", required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--dot", help="write DOT output to this path")
    _add_common(p)
    p.set_defaults(func=_cmd_mckay)

    p = sub.add_parser("local", help="local ring inspection and structure dumps")
    p.add_argument("--type", required=True)
    p.add_argument("--dump-orbifold", action="store_true", help="dump orbifold structure constants")
    p.add_argument("--dump-resolution", action="store_true", help="dump resolution structure constants")
    p.add_argument("--full", action="store_true", help="pre-invariant orbifold ring instead of invariants")
    _add_common(p)
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser("verify", help="run the exact verification")
    vsub = p.add_subparsers(dest="scope", required=True)
    pl = vsub.add_parser("local", help="one ADE quotient point")
    pl.add_argument("--type", required=True)
    _add_common(pl)
    pl.set_defaults(func=_cmd_verify_local)
    pg = vsub.add_parser("global", help="a synthetic surface model")
    pg.add_argument("--config", required=True, help="surface JSON configuration")
    _add_common(pg)
    pg.set_defaults(func=_cmd_verify_global)

    p = sub.add_parser("minor", help="character-table minor nondegeneracy")
    _add_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_minor)

    p = sub.add_parser("corpus", help="verify every ADE type plus the extra groups")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility and has no effect; the corpus runs sequentially",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except _INTERNAL as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except (GroupError, CharacterTableError, SurfaceConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
