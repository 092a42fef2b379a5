"""Seeded inputs for the four benchmark workloads.

Each workload function writes whatever files it needs into ``tmpdir`` and
returns the list of items.  An item is one CLI invocation: an id and the
argv the CLI receives (without ``--seed`` and ``--out``, which the pass
appends).  The same workload seed always gives byte-identical files and the
same item list; the program sees only those files and labels.

Seeds change *which* inputs are built (relabelings, generator presentations,
surface layouts), never how much work they are: a seed-to-seed difference
in cost would show up as benchmark noise.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

WHY = {
    "corpus": "mckay corpus over 20 ADE types and 6 extra groups: the users' main batch job; "
    "many small fields and per-group fixed costs (graph, orbifold ring, algebra)",
    "scaling": "verify local + minor for A15, D16, A20, D20: 16-21 classes, large conductors; "
    "exact CycNum arithmetic dominates, showing kernel gains the corpus dilutes",
    "global": "verify global on seeded 8-24 point surfaces: surface assembly, cross-block "
    "products and repeated per-point verification of cached bundles",
    "ingest": "minor --group FILE on relabeled Cayley tables (360-720) and E7/E8 generator "
    "files: Cayley validation and matrix closure in groups",
}

SCALING_TYPES = ("A15", "D16", "A20", "D20")

# -- corpus and scaling: fixed labels, the seed only moves the CLI seed ---------


def corpus_items(seed: int, tmpdir: Path) -> list[dict]:
    return [{"id": "corpus", "argv": ["corpus", "--jobs", "1"]}]


def scaling_items(seed: int, tmpdir: Path) -> list[dict]:
    items = []
    for label in SCALING_TYPES:
        items.append({"id": f"verify-local-{label}", "argv": ["verify", "local", "--type", label]})
        items.append({"id": f"minor-{label}", "argv": ["minor", "--type", label]})
    return items


# -- global: synthetic surfaces ---------------------------------------------------

GLOBAL_TYPES = ("A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7")
# Two surfaces per size, smallest first, with Picard ranks 1-4 in turn.  A
# surface of n points carries the first n types of the repeating cycle
# GLOBAL_TYPES, so types repeat within and across surfaces and every seed
# verifies the same points; the seed decides the point order and the
# intersection lattice.  Fixing what each surface holds keeps per-item cost,
# and so item_s, the same across seeds.
GLOBAL_SIZES = (8, 8, 12, 12, 16, 16, 20, 20, 24, 24)


def _surface_config(rng: random.Random, size: int, rank: int) -> dict:
    types = [GLOBAL_TYPES[k % len(GLOBAL_TYPES)] for k in range(size)]
    rng.shuffle(types)
    matrix = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            v = rng.randint(-3, 3) if i == j else rng.randint(-2, 2)
            matrix[i][j] = matrix[j][i] = v
    points = [{"id": f"p{k}", "type": t} for k, t in enumerate(types)]
    return {"picard_rank": rank, "intersection_matrix": matrix, "points": points}


def global_items(seed: int, tmpdir: Path) -> list[dict]:
    rng = random.Random(f"global/{seed}")
    items = []
    for k, size in enumerate(GLOBAL_SIZES):
        path = tmpdir / f"surface{k}.json"
        path.write_text(json.dumps(_surface_config(rng, size, 1 + k % 4), sort_keys=True))
        items.append(
            {"id": f"surface{k}-{size}pt", "argv": ["verify", "global", "--config", str(path)]}
        )
    return items


# -- ingest: Cayley tables and SL2 generator files ----------------------------------


def _perms(n: int, even_only: bool = False) -> list[tuple[int, ...]]:
    out = []
    for p in itertools.permutations(range(n)):
        if even_only:
            inversions = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
            if inversions % 2:
                continue
        out.append(p)
    return out


def _perm_table(perms) -> list[list[int]]:
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _direct_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    m = len(b)
    return [
        [a[i][k] * m + b[j][l] for k in range(len(a)) for l in range(m)]
        for i in range(len(a))
        for j in range(m)
    ]


def _relabel(table: list[list[int]], rng: random.Random) -> list[list[int]]:
    n = len(table)
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(table):
        dst = out[sigma[i]]
        for j, v in enumerate(row):
            dst[sigma[j]] = sigma[v]
    return out


CAYLEY_GROUPS = {
    "A5xS3": lambda: _direct_product(_perm_table(_perms(5, True)), _perm_table(_perms(3))),
    "S5xZ4": lambda: _direct_product(_perm_table(_perms(5)), _cyclic_table(4)),
    "S4xS4": lambda: _direct_product(_perm_table(_perms(4)), _perm_table(_perms(4))),
    "S6": lambda: _perm_table(_perms(6)),
}

# A cyclotomic number is {exponent: rational} over zeta_N; the CLI reduces it.
_HALF = Fraction(1, 2)


def _e7_generators():
    # conductor 8: i = z^2, zeta_8 = z
    n = 8
    u = [[{1: 1}, {}], [{}, {7: 1}]]
    w = [
        [{0: _HALF, 2: _HALF}, {0: _HALF, 2: _HALF}],
        [{0: -_HALF, 2: _HALF}, {0: _HALF, 2: -_HALF}],
    ]
    return n, [u, w]


def _e8_generators():
    # conductor 20: i = z^5, zeta_5 = z^4; tau = -(z^8 + z^12), 1/tau = z^4 + z^16
    n = 20
    w = [
        [{0: _HALF, 5: _HALF}, {0: _HALF, 5: _HALF}],
        [{0: -_HALF, 5: _HALF}, {0: _HALF, 5: -_HALF}],
    ]
    g5 = [
        [{8: -_HALF, 12: -_HALF}, {4: _HALF, 16: _HALF, 5: _HALF}],
        [{4: -_HALF, 16: -_HALF, 5: _HALF}, {8: -_HALF, 12: -_HALF}],
    ]
    return n, [w, g5]


GENERATOR_GROUPS = {"E7": _e7_generators, "E8": _e8_generators}


def _neg(d: dict) -> dict:
    return {e: -v for e, v in d.items()}


def _inverse(m):
    """Inverse of a determinant-one 2x2 matrix."""
    return [[m[1][1], _neg(m[0][1])], [_neg(m[1][0]), m[0][0]]]


def _rotate(m):
    """J m J^-1 for J = [[0, 1], [-1, 0]]."""
    return [[m[1][1], _neg(m[1][0])], [_neg(m[0][1]), m[0][0]]]


def _generator_file(rng: random.Random, build) -> dict:
    conductor, gens = build()
    # a random presentation of the same group: each generator or its inverse,
    # in random order, maybe conjugated by J.  Both only move and negate
    # entries, so closure cost does not change with the seed.
    gens = [_inverse(g) if rng.random() < 0.5 else g for g in gens]
    rng.shuffle(gens)
    if rng.random() < 0.5:
        gens = [_rotate(g) for g in gens]

    def cyc(d):
        return {"conductor": conductor, "coeffs": {str(e): str(Fraction(v)) for e, v in sorted(d.items())}}

    return {"generators": [[[cyc(e) for e in row] for row in g] for g in gens]}


def ingest_items(seed: int, tmpdir: Path) -> list[dict]:
    rng = random.Random(f"ingest/{seed}")
    items = []
    for name, build in CAYLEY_GROUPS.items():
        path = tmpdir / f"cayley-{name}.json"
        path.write_text(json.dumps({"cayley": _relabel(build(), rng)}, separators=(",", ":")))
        items.append({"id": f"cayley-{name}", "argv": ["minor", "--group", str(path)]})
    for name, build in GENERATOR_GROUPS.items():
        path = tmpdir / f"generators-{name}.json"
        path.write_text(json.dumps(_generator_file(rng, build), sort_keys=True))
        items.append({"id": f"generators-{name}", "argv": ["minor", "--group", str(path)]})
    return items


WORKLOADS = {
    "corpus": corpus_items,
    "scaling": scaling_items,
    "global": global_items,
    "ingest": ingest_items,
}


def build(workload: str, seed: int, tmpdir: Path) -> list[dict]:
    return WORKLOADS[workload](seed, tmpdir)
