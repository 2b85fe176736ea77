"""The four benchmark workloads: how an item runs, its reference, its check.

An item is one user-visible operation, timed from call to return.  Items call
into `mg` through module attributes (`mg.cli.main`, `mg.green.green_system`,
...), so the tracer's wrappers see them.  References are computed outside the
timed region from the generator's own structures, not from the parsed files,
and by a different route than the item took:

* `e(G, D)` against `e_via_basepoint` at an edge-interior basepoint;
* chain `e_y` against `fiber_e_closed_form`, and genus, delta vector and omega
  against arithmetic on the chain structure;
* resistances against the swapped read r(y, x), plus Foster's identity
  sum r_e / l_e = |V| - 1 for the graph;
* Green reads against the swapped read g(y, x);
* deliberately bad files against their exception class and exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import inputs

import mg.cli
import mg.fibers
import mg.fileformat
import mg.green
import mg.resistance
from mg import FiberConfiguration, GraphPoint, MetrizedGraph, RDivisor


def run_cli(argv: list[str]):
    """(exit code, stdout) of one `mg` command, run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mg.cli.main(argv)
    return code, buf.getvalue()


def records(stdout: str) -> list[dict]:
    payload = json.loads(stdout)
    return payload if isinstance(payload, list) else [payload]


# -- references -----------------------------------------------------------------


def graph_of(spec: inputs.GraphSpec) -> MetrizedGraph:
    return MetrizedGraph(spec.vertices, [(e, u, v, Fraction(l)) for e, u, v, l in spec.edges])


def to_point(spec: inputs.GraphSpec, name) -> GraphPoint:
    if name in spec.points:
        eid, t = spec.points[name]
        return GraphPoint.on_edge(eid, t)
    return GraphPoint.at_vertex(name)


def divisor_of(spec: inputs.GraphSpec) -> RDivisor:
    return RDivisor((to_point(spec, n), a) for n, a in spec.divisor)


def reference_e(spec: inputs.GraphSpec) -> Fraction:
    """e(G, D) = (deg D + 2) g(O, D) + r(O, D), with the basepoint O in the
    middle of the first edge: no constancy certificate, no e(G, D) formula."""
    eid, _, _, length = spec.edges[0]
    o = GraphPoint.on_edge(eid, Fraction(length) / 2)
    return mg.green.e_via_basepoint(graph_of(spec), divisor_of(spec), o)


def config_of(spec: inputs.ChainSpec) -> FiberConfiguration:
    comps = [(f"C{i}", g) for i, g in enumerate(spec.genera)]
    nodes = [(nid, f"C{i}", f"C{i + 1}", l) for i, (nid, l) in enumerate(spec.bridges)]
    nodes += [(nid, f"C{c}", f"C{c}", l) for nid, c, l in spec.self_nodes]
    return FiberConfiguration(comps, nodes)


def chain_expectations(spec: inputs.ChainSpec) -> dict:
    """Quantity -> expected `exact` value(s) of `mg fiber analyze`; omega is
    the list of coefficients in the report's order (components sorted by id
    as text)."""
    branches = [0] * len(spec.genera)
    for i in range(len(spec.bridges)):
        branches[i] += 1
        branches[i + 1] += 1
    for _, c, _ in spec.self_nodes:
        branches[c] += 2
    omega = {f"C{i}": str(2 * g - 2 + branches[i]) for i, g in enumerate(spec.genera)}
    e = str(mg.fibers.fiber_e_closed_form(config_of(spec)))
    return {
        "g": [str(spec.genus())],
        "delta": [",".join(str(d) for d in spec.delta())],
        "omega": [omega[c] for c in sorted(omega)],
        "chain": ["true"],
        "e_y": [e],
        "e_y_closed_form": [e],
    }


def fiber_records_ok(recs: list[dict], want: dict) -> bool:
    got: dict[str, list] = {}
    for r in recs:
        if r["warnings"]:
            return False
        got.setdefault(r["inputs"]["quantity"], []).append(r["exact"])
    return got == want


def bump_first(stdout: str, quantities) -> str:
    """The same output with the first listed quantity's exact value + 1."""
    recs = records(stdout)
    for r in recs:
        if r["inputs"].get("quantity") in quantities and r["exact"] is not None:
            r["exact"] = str(Fraction(r["exact"]) + 1)
            break
    return json.dumps(recs if len(recs) > 1 else recs[0])


# -- workloads -------------------------------------------------------------------


class Workload:
    """Pool of items for one seed.  Subclasses define `make`, `run`,
    `reference`, `check` and `corrupt`."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.items = self.make(seed)
        self._refs: dict[int, object] = {}

    def input_bytes(self) -> bytes:
        """Every generated file, concatenated in a fixed order."""
        return b"".join(p.read_bytes() for p in sorted(self.workdir.rglob("*")) if p.is_file())

    def write(self, rel: str, text: str) -> str:
        path = self.workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return str(path)

    def ref(self, i: int):
        if i not in self._refs:
            self._refs[i] = self.reference(self.items[i])
        return self._refs[i]

    def ok(self, i: int, output) -> bool:
        if isinstance(output, BaseException):
            return False
        try:
            return self.check(self.items[i], output, self.ref(i))
        except Exception as exc:  # malformed output, or no reference: a failed item
            print(f"check of {self.name} item {i} raised {exc!r}", file=sys.stderr)
            return False


class EinvChords(Workload):
    name = "einv-chords"

    def make(self, seed):
        return [(self.write(f"g{k:02d}.mg", s.text()), s)
                for k, s in enumerate(inputs.GENERATORS[self.name](seed))]

    def run(self, item):
        return run_cli(["--json", "e-invariant", item[0]])

    def reference(self, item):
        return reference_e(item[1])

    def check(self, item, output, ref):
        code, out = output
        (rec,) = records(out)
        return code == 0 and Fraction(rec["exact"]) == ref

    def corrupt(self, output):
        return output[0], bump_first(output[1], ("e",))


class FiberChains(Workload):
    name = "fiber-chains"

    def make(self, seed):
        return [(self.write(f"f{k:02d}.fib", s.text()), s)
                for k, s in enumerate(inputs.GENERATORS[self.name](seed))]

    def run(self, item):
        return run_cli(["--json", "fiber", "analyze", item[0]])

    def reference(self, item):
        return chain_expectations(item[1])

    def check(self, item, output, ref):
        code, out = output
        return code == 0 and fiber_records_ok(records(out), ref)

    def corrupt(self, output):
        return output[0], bump_first(output[1], ("e_y",))


def point(spec: inputs.GraphSpec, p: tuple) -> GraphPoint:
    if p[0] == "vertex":
        return GraphPoint.at_vertex(p[1])
    return GraphPoint.on_edge(p[1], p[2])


class PointQueries(Workload):
    name = "point-queries"

    def make(self, seed):
        items = []
        for k, q in enumerate(inputs.GENERATORS[self.name](seed)):
            path = self.write(f"q{k:02d}.mg", q.graph.text())
            reads = [(kind, point(q.graph, x), point(q.graph, y)) for kind, x, y in q.reads]
            items.append((path, q.graph, reads))
        return items

    def run(self, item):
        path, _, reads = item
        graph, _, divisor = mg.fileformat.parse_graph_file(Path(path).read_text())
        system = mg.green.green_system(graph, divisor)
        out = []
        for kind, x, y in reads:
            if kind == "r":
                out.append(mg.resistance.effective_resistance(graph, x, y))
            else:
                out.append(system.eval(x, y))
        return out

    def reference(self, item):
        _, spec, reads = item
        g = graph_of(spec)
        foster = sum((mg.resistance.effective_resistance(g, e.u, e.v) / e.length
                      for e in g.edges if not e.is_loop()), Fraction(0))
        if foster != len(g.vertex_list) - 1:
            return None
        system = mg.green.green_system(g, divisor_of(spec))
        return [mg.resistance.effective_resistance(g, y, x) if kind == "r"
                else system.eval(y, x) for kind, x, y in reads]

    def check(self, item, output, ref):
        return ref is not None and output == ref

    def corrupt(self, output):
        return [output[0] + 1] + output[1:]


class BatchSmall(Workload):
    name = "batch-small"

    def make(self, seed):
        items = []
        for d, files in enumerate(inputs.GENERATORS[self.name](seed)):
            paths = [self.write(f"b{d:02d}/{f.name}", f.text) for f in files]
            items.append((str(self.workdir / f"b{d:02d}"), list(zip(paths, files))))
        return items

    def run(self, item):
        return run_cli(["--json", "batch", item[0]])

    def reference(self, item):
        want = {}
        for path, f in item[1]:
            if f.bad:
                want[path] = ("bad", inputs.BAD_ERROR[f.bad])
            elif isinstance(f.spec, inputs.ChainSpec):
                want[path] = ("fib", chain_expectations(f.spec))
            else:
                want[path] = ("mg", reference_e(f.spec))
        codes = [inputs.BAD_EXIT[f.bad] for _, f in sorted(item[1], key=lambda pf: pf[0])
                 if f.bad]
        return want, (codes[0] if codes else 0)

    def check(self, item, output, ref):
        code, out = output
        want, want_code = ref
        by_file: dict[str, list] = {}
        for r in records(out):
            by_file.setdefault(r["inputs"]["file"], []).append(r)
        if code != want_code or set(by_file) != set(want):
            return False
        for path, (kind, expect) in want.items():
            recs = by_file[path]
            if kind == "bad":
                if len(recs) != 1 or not recs[0]["warnings"][0].startswith(expect + ":"):
                    return False
            elif kind == "fib":
                if not fiber_records_ok(recs, expect):
                    return False
            elif len(recs) != 1 or Fraction(recs[0]["exact"]) != expect:
                return False
        return True

    def corrupt(self, output):
        return output[0], bump_first(output[1], ("e", "e_y"))


WORKLOADS = {w.name: w for w in (EinvChords, FiberChains, PointQueries, BatchSmall)}

