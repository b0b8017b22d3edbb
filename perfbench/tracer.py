"""Spans around the public functions of each coinfloor layer.

`Tracer.install` rebinds each wrapped function in every coinfloor module
that holds it (`verify` and `jacobi` import `fast_floor_sum` by name, so
both bindings are wrapped) and wraps `CoprimePair.__init__` for pair
construction; `uninstall` restores the originals.  A call that a layer
makes into itself counts once, as the outermost call.  Aggregates are kept
in memory as calls run; the spans of the benchmark's operations and of
the calls directly under them are kept for the trace file.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# layer name -> (module, public functions)
LAYERS = {
    "floorsum": ("floorsum", (
        "fast_floor_sum_steps", "fast_floor_sum", "naive_floor_sum", "floor_sum_fast",
        "floor_sum_naive", "reciprocity_residual", "strong_residual", "gauss_residual")),
    "core.factorize": ("core", ("factorize",)),
    "coinproblem.member": ("coinproblem", ("is_representable", "representation_count")),
    "coinproblem.family": ("coinproblem", ("best_family_point", "best2_count")),
    "coinproblem.upto": ("coinproblem", ("count_representable_upto",)),
    "coinproblem.lattice": ("coinproblem", ("count_lattice_3var",)),
    "coinproblem.gaps": ("coinproblem", ("nonrepresentable_set",)),
    "coinproblem.gapsums": ("coinproblem", ("sylvester_sum", "sylvester_sum_power", "weighted_sylvester_sum")),
    "jacobi.eisenstein": ("jacobi", ("jacobi_eisenstein", "jacobi_reciprocity_check")),
    "jacobi.definition": ("jacobi", ("jacobi_by_definition", "legendre_euler")),
    "jacobi.split": ("jacobi", ("ge1_residual", "ge2_residual")),
    "jacobi.gauss_lemma": ("jacobi", ("gauss_lemma_count",)),
    "verify.equivalence_chain": ("verify", ("check_equivalence_chain",)),
    "verify.lemma_chain": ("verify", ("check_lemma_chain",)),
    "verify.jacobi_suite": ("verify", ("check_jacobi_suite",)),
    "verify.table1": ("verify", ("reproduce_table1",)),
    "verify.section5": ("verify", ("reproduce_section5_example",)),
}
MODULES = ("core", "floorsum", "coinproblem", "jacobi", "verify", "cli")
# floor-sum operand sizes: bucket name -> largest bit length in it
SIZE_BUCKETS = (("1e3", 20), ("1e9", 100), ("1e100", 500), ("1e300", None))


class Layer:
    __slots__ = ("calls", "busy", "child", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0  # part of busy covered by spans of other layers
        self.depth = 0


def _bits(args: tuple) -> int:
    top = 0
    for x in args:
        values = (x,) if isinstance(x, int) else getattr(x, "__dict__", {}).values()
        for v in values:
            if isinstance(v, int):
                top = max(top, abs(v).bit_length())
    return top


class Tracer:
    def __init__(self) -> None:
        self.layers = {name: Layer() for name in (*LAYERS, "core.pair")}
        self.sizes = {name: [0, 0.0] for name, _ in SIZE_BUCKETS}  # calls, busy
        self.rounds = [0, 0]  # reducer calls, rounds they returned
        self.gaps_listed = 0
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent op
        self._stack: list[list] = []  # [child time, span depth]
        self.ops: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_result=None):
        layer = self.layers[name]
        stack, spans = self._stack, self.spans
        sized = name == "floorsum"

        def traced(*args, **kwargs):
            if layer.depth:  # a call the layer makes into itself
                out = fn(*args, **kwargs)
                if on_result:
                    on_result(out)
                return out
            layer.depth = 1
            frame = [0.0, len(stack)]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                layer.depth = 0
                dt = t1 - t0
                layer.calls += 1
                layer.busy += dt
                layer.child += frame[0]
                if stack:
                    stack[-1][0] += dt
                if frame[1] <= 1:
                    spans.append((name, t0, t1, len(self.ops) - 1))
                if sized:
                    bits = _bits(args)
                    bucket = next(b for b, top in SIZE_BUCKETS if top is None or bits <= top)
                    self.sizes[bucket][0] += 1
                    self.sizes[bucket][1] += dt
            if on_result:
                on_result(out)
            return out

        return traced

    def _count_rounds(self, out) -> None:
        self.rounds[0] += 1
        self.rounds[1] += out[1]

    def _count_gaps(self, out) -> None:
        self.gaps_listed += len(out.gaps)

    def op(self, name: str, fn, *args):
        """Run one benchmark operation as a root span."""
        self.ops.append(name)
        frame = [0.0, 0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((name, t0, t1, len(self.ops) - 1))

    def install(self) -> None:
        mods = {m: importlib.import_module(f"coinfloor.{m}") for m in MODULES}
        hooks = {"fast_floor_sum_steps": self._count_rounds, "nonrepresentable_set": self._count_gaps}
        originals = {}
        for layer, (home, names) in LAYERS.items():
            for fname in names:
                fn = getattr(mods[home], fname, None)
                if fn is not None:
                    originals[id(fn)] = self._wrap(layer, fn, hooks.get(fname))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        pair = mods["core"].CoprimePair
        self._saved.append((pair, "__init__", pair.__init__))
        pair.__init__ = self._wrap("core.pair", pair.__init__)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
