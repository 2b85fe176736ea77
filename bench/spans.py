"""Spans and counts around calls into `mg`, kept by the benchmark itself.

`Tracer.install()` replaces every public function of the layer modules with
a timing wrapper, in every `mg` namespace that binds it (so `subdivide_at` is
wrapped in `mg.graphs`, `mg.green`, `mg.resistance` and `mg`, and calls made
inside the package are seen too), plus the public methods named in METHODS.
`uninstall()` puts the originals back.  Nothing under `src/` is modified.

Spans are aggregated as they close, per function: calls, inclusive time
(outermost activation only) and self time (duration minus direct child
spans).  Time spent in the tracer's own bookkeeping of `solve_columns`
operands, and time handed to `pause` (the benchmark's clock samples), is
taken out of every enclosing span, so it does not show up as layer time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# Modules whose public functions are timed layers.  `bounds` (O(g) closed-form
# arithmetic) and `oracle` (float cross-check off the user path) are not.
LAYERS = ("linalg", "graphs", "resistance", "green", "closedforms", "fibers",
          "fileformat", "cli")
# Public methods that are layer entry points in their own right.
METHODS = (("graphs", "MetrizedGraph", "validate"), ("green", "GreenSystem", "eval"))
# `as_point` only coerces an argument; it runs on every point access and a
# span would cost more than the call.
SKIP = {"mg.graphs.as_point"}
SOLVE = "mg.linalg.solve_columns"


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Stat:
    __slots__ = ("calls", "incl", "self", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, record_systems: int = 0):
        self.stats: dict[str, Stat] = {}
        self.layer_of: dict[str, str] = {}
        self._stack: list[list[float]] = []  # per open span: [child time]
        self.paused = 0.0  # time removed from enclosing spans
        self.bookkeeping = 0.0  # the part of it spent in this tracer
        self.dims: list[int] = []
        self.rhs_cols = 0
        self.flops = 0.0
        self.operand_bits_max = 0
        self.record_systems = record_systems
        self.systems: list[tuple] = []
        self._patches: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        is_solve = key == SOLVE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            paused0 = self.paused
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0 - (self.paused - paused0)
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self += dur - frame[0]
                if stat.depth == 0:
                    stat.incl += dur
                if stack:
                    stack[-1][0] += dur
            if is_solve:
                self._note_system(args, result)
            return result

        return wrapper

    def _note_system(self, args, solutions):
        t0 = perf_counter()
        a, b_columns = args
        n, k = len(a), len(b_columns)
        self.dims.append(n)
        self.rhs_cols += k
        self.flops += n**3 / 3 + n * n * k
        bits = 0
        for row in a:
            for x in row:
                bits = max(bits, _bits(x))
        for col in list(b_columns) + list(solutions):
            for x in col:
                bits = max(bits, _bits(x))
        self.operand_bits_max = max(self.operand_bits_max, bits)
        if len(self.systems) < self.record_systems:
            self.systems.append(([list(r) for r in a], [list(c) for c in b_columns]))
        d = perf_counter() - t0
        self.paused += d
        self.bookkeeping += d

    def pause(self, seconds: float) -> None:
        self.paused += seconds

    def install(self) -> None:
        mods = {name: m for name, m in sys.modules.items()
                if name == "mg" or name.startswith("mg.")}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[f"mg.{layer}"]
            for name, obj in vars(mod).items():
                key = f"mg.{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and key not in SKIP):
                    wrappers[obj] = self._wrap(key, obj)
                    self.layer_of[key] = layer
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[f"mg.{layer}"], cls_name)
            key = f"mg.{layer}.{cls_name}.{meth}"
            orig = vars(cls)[meth]
            self.layer_of[key] = layer
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(key, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    # -- readout -----------------------------------------------------------

    def calls(self, key: str) -> int:
        s = self.stats.get(key)
        return s.calls if s else 0

    def incl(self, key: str) -> float:
        s = self.stats.get(key)
        return s.incl if s else 0.0

    def self_time(self, key: str) -> float:
        s = self.stats.get(key)
        return s.self if s else 0.0

    def layer_self(self, layer: str) -> float:
        return sum(s.self for k, s in self.stats.items() if self.layer_of.get(k) == layer)

    def exact_counts(self) -> tuple[int, int, int]:
        return (self.calls(SOLVE), self.calls("mg.graphs.subdivide_at"),
                self.calls("mg.fibers.classify_node"))
