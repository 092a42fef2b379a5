"""Span tracing of mckay's layers from outside the package.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records one span (name, start, end, parent span, item id) per call;
``Tracer.uninstall()`` puts every original object back.  Nothing under
``src/`` is edited: a function is replaced wherever a module of the package
holds a reference to it (``from .chartab import mckay_graph`` copies the
reference into the importing module), and a method is replaced on its class.

Spans are kept in flat arrays while the pass runs and written out once at
the end.  A layer's self time is the duration of its spans minus the time
their direct child spans cover; spans nest strictly because the CLI runs in
one thread.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array
from bisect import bisect_right
from functools import cached_property

# (metric prefix, module, class or None, attribute names).  Several attributes
# may share one prefix: ``cyclo.add`` counts addition, subtraction and
# negation, reflected forms included.
TARGETS = (
    ("cyclo.mul", "mckay.cyclo", "CycNum", ("__mul__", "__rmul__")),
    ("cyclo.add", "mckay.cyclo", "CycNum", ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    ("cyclo.inverse", "mckay.cyclo", "CycNum", ("inverse",)),
    ("cyclo.lift", "mckay.cyclo", "CycNum", ("lift",)),
    ("cyclo.eq", "mckay.cyclo", "CycNum", ("__eq__",)),
    ("linalg.determinant", "mckay.linalg", None, ("determinant",)),
    ("linalg.rank", "mckay.linalg", None, ("rank",)),
    ("linalg.matmul", "mckay.linalg", None, ("matmul",)),
    ("chartab.character_table", "mckay.chartab", None, ("character_table",)),
    ("chartab.mckay_graph", "mckay.chartab", None, ("mckay_graph",)),
    ("orbifold.local_orbifold_algebra", "mckay.orbifold", None, ("local_orbifold_algebra",)),
    ("orbifold.invariant_subalgebra", "mckay.orbifold", None, ("invariant_subalgebra",)),
    ("resolution.local_resolution_algebra", "mckay.resolution", None, ("local_resolution_algebra",)),
    ("algebra.build", "mckay.algebra", "GradedAlgebra", ("build",)),
    ("algebra.mult_vec", "mckay.algebra", "GradedAlgebra", ("mult_vec",)),
    ("algebra.gram", "mckay.algebra", "GradedAlgebra", ("gram",)),
    ("groups.build_binary_polyhedral", "mckay.groups", None, ("build_binary_polyhedral",)),
    ("groups.group_from_generators", "mckay.groups", None, ("group_from_generators",)),
    ("groups.group_from_cayley", "mckay.groups", None, ("group_from_cayley",)),
    ("groups.conjugacy", "mckay.groups", "FiniteGroup", ("conjugacy",)),
    ("groups.rotation_data", "mckay.groups", "FiniteGroup", ("rotation_data",)),
    ("correspondence.phi_local", "mckay.correspondence", None, ("phi_local",)),
    ("correspondence.verify_correspondence", "mckay.correspondence", None, ("verify_correspondence",)),
    ("correspondence.minor_report", "mckay.correspondence", None, ("minor_report",)),
    ("catalog.ade_bundle", "mckay.catalog", None, ("ade_bundle",)),
    ("surface.parse_surface", "mckay.surface", None, ("parse_surface",)),
    ("surface.assemble_global", "mckay.surface", None, ("assemble_global",)),
    ("surface.verify_assembly", "mckay.surface", None, ("verify_assembly",)),
    ("cli.main", "mckay.cli", None, ("main",)),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)
# metrics derived from spans and counters rather than one span name
RATIO_METRICS = (
    "correspondence.verify.distinct_ratio",
    "catalog.ade_bundle.hit_ratio",
    "trace.overhead_ratio",
)


def per_layer_metric_names() -> list[str]:
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.self_s", f"{span}.calls"]
    return names + list(RATIO_METRICS)


class Tracer:
    """Records spans for one pass; install before the pass, uninstall after."""

    def __init__(self):
        self.item = -1
        self.names = array("i")
        self.parents = array("q")
        self.items = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._verified: dict[int, object] = {}
        self._verify_calls = 0
        self._bundle_cache = None
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name_id: int, fn):
        names, parents, items = self.names, self.parents, self.items
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count_verify(self, fn):
        def wrapper(cmap, *args, **kwargs):
            self._verify_calls += 1
            self._verified[id(cmap)] = cmap  # keeps it alive so ids stay distinct
            return fn(cmap, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target the package has.  A target it no longer has (a
        later change may remove or rename one) is listed in ``missing`` and
        reads 0 calls, so the other layers are still measured."""
        if self._patches:
            raise RuntimeError("a tracer installs once")
        for _, modname, _, _ in TARGETS:
            with contextlib.suppress(ImportError):
                importlib.import_module(modname)
        package = [m for n, m in sorted(sys.modules.items()) if n == "mckay" or n.startswith("mckay.")]
        for name_id, (span, modname, clsname, attrs) in enumerate(TARGETS):
            owner = sys.modules.get(modname)
            if clsname is not None:
                owner = getattr(owner, clsname, None)
            present = [a for a in attrs if owner is not None and a in vars(owner)]
            if not present:
                self.missing.append(span)
                continue
            if clsname is not None:
                for attr in present:
                    raw = vars(owner)[attr]
                    if isinstance(raw, cached_property):
                        new = cached_property(self._wrap(name_id, raw.func))
                        new.__set_name__(owner, attr)
                    elif isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name_id, raw.__func__))
                    else:
                        new = self._wrap(name_id, raw)
                    self._set(owner, attr, new)
                continue
            original = vars(owner)[present[0]]
            if span == "catalog.ade_bundle":
                self._bundle_cache = original
            wrapped = self._wrap(name_id, original)
            if span == "correspondence.verify_correspondence":
                wrapped = self._count_verify(wrapped)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patches)

    # -- results -----------------------------------------------------------------

    def bundle_hit_ratio(self) -> float:
        if self._bundle_cache is None:
            return 0.0
        info = self._bundle_cache.cache_info()
        total = info.hits + info.misses
        return info.hits / total if total else 0.0

    def distinct_ratio(self) -> float:
        return len(self._verified) / self._verify_calls if self._verify_calls else 0.0

    def layer_totals(self, samples=(), speed: float = 1.0) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time in reference seconds.

        ``samples`` are the (start, end) times of the speed sampler's kernel
        runs during the pass; each is taken out of the innermost span it
        interrupted.  Self times are then scaled by ``speed`` (clock.py).
        """
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        for s0, s1 in samples:
            i = bisect_right(starts, s0) - 1  # spans are stored in start order
            while i >= 0 and ends[i] < s1:
                i = parents[i]
            if i >= 0:
                child[i] += s1 - s0
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for i, name_id in enumerate(self.names):
            calls[name_id] += 1
            self_s[name_id] += (ends[i] - starts[i] - child[i]) * speed
        return {
            name: {"calls": calls[k], "self_s": self_s[k]} for k, name in enumerate(SPAN_NAMES)
        }

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the five raw arrays."""
        header = {
            "names": list(SPAN_NAMES),
            "count": len(self.starts),
            "arrays": ["names:i", "parents:q", "items:i", "starts:d", "ends:d"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.items, self.starts, self.ends):
                arr.tofile(fh)
