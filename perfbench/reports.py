"""Reading one CLI report: verdict, stable digest, and input sizes."""

from __future__ import annotations

import hashlib
import json
from math import gcd

# Keys whose values legitimately differ between runs of the same input.
VOLATILE_KEYS = ("seed", "timings")


def strip_volatile(value):
    if isinstance(value, dict):
        return {k: strip_volatile(v) for k, v in value.items() if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [strip_volatile(v) for v in value]
    return value


def digest(payload: dict) -> str:
    text = json.dumps(strip_volatile(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def passed(payload: dict) -> bool:
    """The report's own verdict: top-level ``pass`` or ``report.pass``."""
    if "pass" in payload:
        return payload["pass"] is True
    report = payload.get("report")
    return isinstance(report, dict) and report.get("pass") is True


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _group_sizes(group: dict, prime=None, block=None) -> dict:
    out = {"order": group.get("order"), "classes": group.get("classes")}
    exponent = group.get("exponent")
    if isinstance(exponent, int):
        out["conductor"] = 2 * exponent
        out["phi"] = _phi(2 * exponent)
    if prime is not None:
        out["dixon_prime"] = prime
    if block is not None:
        out["block_size"] = block
    return out


def sizes(payload: dict) -> dict:
    """Sizes of the item's problem, read from the report ``info``."""
    command = payload.get("command")
    if command == "corpus":
        groups = {}
        for entry in payload.get("groups", []):
            table = entry.get("chartable", {})
            group = dict(table.get("group", {}))
            group["classes"] = len(group.get("classes", []))
            block = entry.get("verify", {}).get("info", {}).get("block_size")
            groups[entry.get("label")] = _group_sizes(group, prime=table.get("dixon_prime"), block=block)
        return {"groups": groups}
    info = payload.get("report", {}).get("info", {})
    if command == "verify local":
        return _group_sizes(
            info.get("group", {}), prime=info.get("dixon_prime"), block=info.get("block_size")
        )
    if command == "minor":
        out = _group_sizes(info.get("group", {}))
        conductor = payload.get("determinant", {}).get("conductor")
        if isinstance(conductor, int):
            out["det_conductor"] = conductor
            out["det_phi"] = _phi(conductor)
        return out
    if command == "verify global":
        surface = info.get("surface", {})
        return {
            "points": len(surface.get("points", [])),
            "picard_rank": surface.get("picard_rank"),
            "dimension": info.get("dimension"),
        }
    return {}
