"""Reference solver: the subdivide-and-solve path the library used before
it solved one resistance kernel per graph.

Kept verbatim, for differential tests only, except that `_potentials` calls
`solve_columns` with one column where it called the single-column wrapper
`linalg.solve`, which had no other caller and is gone, and that the
wrappers no test read, `green_eval`, `e_invariant` and `e_via_basepoint`,
are gone.  Every quantity is
computed by subdividing the graph until the points involved are vertices and
running a fresh exact elimination: one per resistance, one per deleted edge
of the canonical measure, one per interior source point of a Green value.
The library's kernel formulas must reproduce these values exactly.

The eliminations use the dense Gaussian elimination the library used before
`mg.linalg` became a sparse symmetric elimination, kept verbatim in the first
section, so the reference path shares no solver with the library;
`tests/test_linalg.py` holds the two solvers equal.  That section also keeps
the elimination loop of the first sparse solver, which picked each pivot by
a scan of the rows left, cut down to the order of its pivots
(`pivot_order`); the library's pivot heap is held to that order.

The next section holds the node classification the library used before it
found every node type in one bridge-finding walk: `classify_node` rebuilds
the configuration graph for each node and walks both sides of it, and
`is_chain_of_stable_components` makes its own walk.  Both are kept verbatim.
Beside them, `delta_vector` counts `classify_node`'s types, and
`unstable_components` reads omega's coefficient 2 genus - 2 + branches of
each component off the node list, counting branches itself, so neither
reads the walk, the graph's valences or the omega a configuration keeps.

The section after it holds the command line's 12-digit decimal formatter
as it was before it used the `decimal` module: an exponent search and one
half-up rounding step on the exact fraction, kept verbatim.

The last section keeps the kernel's point reads as they were before a
read ran on integer parts, verbatim but for taking the potential and the
kernel as arguments: `_Potential.read` and its row, on the fast type of
`mg.linalg`, and `ResistanceKernel.pair`, with the two reads made of it,
a resistance and a Green value.  They read the kernel's Gamma and edge
table and a potential's vertex values, tents and factor, so they check
the read's arithmetic, not the kernel.

`kernel_order` is new, not kept: the order in which the library's kernel
indexes the vertices, ground first, found by a count of adjacent pairs, so
that tests can compare the kernel's per-vertex data with this module's.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from mg import linalg

from mg.errors import (
    ConstancyViolation,
    DegreeMinusTwo,
    Disconnected,
    EdgeNotFound,
    NodeNotFound,
)
from mg.fibers import FiberConfiguration, NodeType, configuration_graph
from mg.graphs import (
    GraphPoint,
    MetrizedGraph,
    RDivisor,
    as_point,
    subdivide_at,
)


# -- dense exact elimination ---------------------------------------------


def _size(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def solve_columns(
    a: list[list[Fraction]], b_columns: list[list[Fraction]]
) -> list[list[Fraction]]:
    """Solve a·x = b for each column b in b_columns; returns the solution
    columns in the same order.  Raises ValueError on a singular matrix."""
    n = len(a)
    k = len(b_columns)
    for col in b_columns:
        if len(col) != n:
            raise ValueError("right-hand side length mismatch")
    if n == 0:
        return [[] for _ in range(k)]

    rows = [list(a[i]) + [col[i] for col in b_columns] for i in range(n)]
    width = n + k

    for c in range(n):
        pivot_row = -1
        pivot_size = None
        for r in range(c, n):
            x = rows[r][c]
            if x != 0:
                s = _size(x)
                if pivot_size is None or s < pivot_size:
                    pivot_row = r
                    pivot_size = s
        if pivot_row < 0:
            raise ValueError("singular system")
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
        prow = rows[c]
        pval = prow[c]
        for r in range(c + 1, n):
            f = rows[r][c]
            if f == 0:
                continue
            f = f / pval
            rr = rows[r]
            for j in range(c, width):
                rr[j] = rr[j] - f * prow[j]

    solutions = []
    for j in range(k):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            s = rows[i][n + j]
            ri = rows[i]
            for m in range(i + 1, n):
                s -= ri[m] * x[m]
            x[i] = s / ri[i]
        solutions.append(x)
    return solutions


def pivot_order(a: list[list[Fraction]]) -> list[int]:
    """The order in which the sparse elimination picked its pivots: minimum
    degree by a scan of the rows left, ties to the lower index.  Takes a
    symmetric matrix whose pivots are nonzero in that order."""
    n = len(a)
    diag = [Fraction(0)] * n
    adj: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if not x:
                continue
            if i == j:
                diag[i] = x
            else:
                adj[i][j] = x

    order = []
    left = set(range(n))
    while left:
        k = min(left, key=lambda i: (len(adj[i]), i))
        left.remove(k)
        d = diag[k]
        nbrs = list(adj[k].items())
        for p, (i, x) in enumerate(nbrs):
            l = x / d
            row = adj[i]
            del row[k]
            diag[i] -= l * x
            for j, y in nbrs[p + 1 :]:
                row[j] = adj[j][i] = row.get(j, 0) - l * y
        order.append(k)
    return order


# -- resistance -----------------------------------------------------------


def _laplacian(g: MetrizedGraph, index: dict) -> list[list[Fraction]]:
    n = len(index)
    L = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        if e.is_loop():
            continue
        c = 1 / e.length
        i, j = index[e.u], index[e.v]
        L[i][i] += c
        L[j][j] += c
        L[i][j] -= c
        L[j][i] -= c
    return L


def _potentials(g: MetrizedGraph, source, sink) -> dict:
    """Vertex potentials for a unit current source->sink, grounded at sink."""
    verts = [v for v in g.vertex_list if v != sink]
    index = {v: i for i, v in enumerate(g.vertex_list)}
    L = _laplacian(g, index)
    keep = [index[v] for v in verts]
    A = [[L[i][j] for j in keep] for i in keep]
    b = [Fraction(1) if v == source else Fraction(0) for v in verts]
    x = solve_columns(A, [b])[0]
    pot = dict(zip(verts, x))
    pot[sink] = Fraction(0)
    return pot


def effective_resistance(g: MetrizedGraph, p, q) -> Fraction:
    """Resistance between the points p and q; symmetric, 0 iff p = q."""
    g.validate()
    g1, vp, rel = subdivide_at(g, p)
    q1 = rel(g.check_point(q))
    g2, vq, rel2 = subdivide_at(g1, q1)
    vp2 = rel2(GraphPoint.at_vertex(vp)).vertex
    if vp2 == vq:
        return Fraction(0)
    pot = _potentials(g2, vp2, vq)
    return pot[vp2]


def resistance_in_deleted_edge(g: MetrizedGraph, edge_id) -> Fraction | None:
    """Resistance between the endpoints of the edge in g minus that edge.

    Returns None when the edge is a bridge (infinite resistance) and 0 for a
    loop, whose endpoints coincide.
    """
    e = g.edge_by_id.get(edge_id)
    if e is None:
        raise EdgeNotFound(f"edge {edge_id!r} is not in the graph")
    if e.is_loop():
        return Fraction(0)
    rest = MetrizedGraph(g.vertex_list, [f for f in g.edges if f.id != e.id])
    if not rest.connects(e.u, e.v):
        return None
    # with the endpoints still connected, rest is connected as a whole
    return effective_resistance(rest, e.u, e.v)


def kernel_order(g: MetrizedGraph) -> list:
    """The vertices in the order of the library's resistance kernel: first
    the ground, the vertex adjacent to the most other vertices (the first
    in `vertex_list` on a tie), then the others in `vertex_list` order."""
    pairs = {frozenset((e.u, e.v)) for e in g.edges if e.u != e.v}
    count = {v: sum(v in p for p in pairs) for v in g.vertex_list}
    best = max(count.values())
    ground = next(v for v in g.vertex_list if count[v] == best)
    return [ground] + [v for v in g.vertex_list if v != ground]


# -- measures and Green functions ----------------------------------------


@dataclass
class AdmissibleMeasure:
    """Atoms at vertices plus a constant density per edge; total mass 1."""

    graph: MetrizedGraph
    atoms: dict
    densities: dict

    def total_mass(self) -> Fraction:
        mass = sum(self.atoms.values(), Fraction(0))
        for e in self.graph.edges:
            mass += self.densities.get(e.id, Fraction(0)) * e.length
        return mass

    def density(self, edge_id) -> Fraction:
        return self.densities.get(edge_id, Fraction(0))

    def atom(self, v) -> Fraction:
        return self.atoms.get(v, Fraction(0))


def canonical_measure(g: MetrizedGraph) -> AdmissibleMeasure:
    """The canonical probability measure of the graph (the D = 0 case)."""
    g.validate()
    atoms = {v: 1 - Fraction(g.valence(v), 2) for v in g.vertex_list}
    densities = {}
    for e in g.edges:
        if e.is_loop():
            densities[e.id] = 1 / e.length
            continue
        r = resistance_in_deleted_edge(g, e.id)
        densities[e.id] = Fraction(0) if r is None else 1 / (e.length + r)
    return AdmissibleMeasure(g, atoms, densities)


def _vertexify(g: MetrizedGraph, d: RDivisor):
    """Subdivide until every divisor support point is a vertex.

    Returns (graph, divisor, relocation from g to the new graph).
    """
    rel_total = lambda q: g.check_point(q)  # noqa: E731 - tiny closure chain
    cur = g
    d = d.relocate(g.check_point)
    while True:
        interior = [p for p in d.support() if not p.is_vertex]
        if not interior:
            return cur, d, rel_total
        cur, _, rel = subdivide_at(cur, interior[0])
        d = d.relocate(rel)
        prev = rel_total
        rel_total = lambda q, prev=prev, rel=rel: rel(prev(q))


def admissible_measure(g: MetrizedGraph, d: RDivisor) -> AdmissibleMeasure:
    """The measure mu_(G,D).

    If D has interior support points the graph is subdivided first and the
    returned measure lives on the subdivided graph (`measure.graph`).
    """
    deg = d.degree()
    if deg == -2:
        raise DegreeMinusTwo("divisor has degree -2")
    gs, ds, _ = _vertexify(g, d)
    can = canonical_measure(gs)
    scale = deg + 2
    atoms = {
        v: (ds.coeff(GraphPoint.at_vertex(v)) + 2 * can.atoms[v]) / scale
        for v in gs.vertex_list
    }
    densities = {e: 2 * rho / scale for e, rho in can.densities.items()}
    return AdmissibleMeasure(gs, atoms, densities)


def measure_integral(measure: AdmissibleMeasure, values: dict) -> Fraction:
    """Integral of a function against the measure, where the function takes
    the given vertex values and is quadratic on each edge with second
    derivative equal to that edge's density."""
    total = Fraction(0)
    for v, a in measure.atoms.items():
        if a != 0:
            total += a * values[v]
    for e in measure.graph.edges:
        rho = measure.densities.get(e.id, Fraction(0))
        if rho == 0:
            continue
        l = e.length
        total += rho * ((values[e.u] + values[e.v]) * l / 2 - rho * l**3 / 12)
    return total


def _green_columns(
    graph: MetrizedGraph, measure: AdmissibleMeasure, xs=None
) -> dict:
    """Solve for the columns g(x, .) on vertices, for each x in xs.

    The vertex flux conditions give L g = e_x - m with L the conductance
    Laplacian and m_v = atom(v) + sum over edge-ends at v of rho*l/2 (loops
    contribute both their ends).  One vertex is grounded and the solution is
    shifted so that its integral against the measure vanishes.
    """
    verts = graph.vertex_list
    if xs is None:
        xs = verts
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}

    m = {v: measure.atom(v) for v in verts}
    for e in graph.edges:
        rho = measure.densities.get(e.id, Fraction(0))
        if rho == 0:
            continue
        half = rho * e.length / 2
        m[e.u] += half
        m[e.v] += half

    columns: dict = {}
    if n == 1:
        v0 = verts[0]
        base = {v0: Fraction(0)}
        shift = measure_integral(measure, base)
        for x in xs:
            columns[x] = {v0: -shift}
        return columns

    L = [[Fraction(0)] * n for _ in range(n)]
    for e in graph.edges:
        if e.is_loop():
            continue
        c = 1 / e.length
        i, j = index[e.u], index[e.v]
        L[i][i] += c
        L[j][j] += c
        L[i][j] -= c
        L[j][i] -= c

    ground = verts[0]
    free = verts[1:]
    keep = [index[v] for v in free]
    A = [[L[i][j] for j in keep] for i in keep]
    rhs = []
    for x in xs:
        rhs.append([(Fraction(1) if v == x else Fraction(0)) - m[v] for v in free])
    sols = solve_columns(A, rhs)
    for x, sol in zip(xs, sols):
        col = {ground: Fraction(0)}
        col.update(zip(free, sol))
        shift = measure_integral(measure, col)
        columns[x] = {v: val - shift for v, val in col.items()}
    return columns


def _quad_eval(
    graph: MetrizedGraph, measure: AdmissibleMeasure, col: dict, y: GraphPoint
) -> Fraction:
    """Evaluate the column at an edge-interior point via the per-edge
    quadratic: values at the endpoints plus curvature = density."""
    e = graph.edge_by_id[y.edge]
    rho = measure.densities.get(e.id, Fraction(0))
    l = e.length
    gu, gv = col[e.u], col[e.v]
    slope = (gv - gu) / l - rho * l / 2
    t = y.offset
    return gu + slope * t + rho * t * t / 2


class GreenSystem:
    """Solved state for a fixed (G, D): evaluates g_(G,D) at point pairs.

    Construction subdivides so every divisor support point is a vertex and
    solves one exact linear system per vertex.  Evaluation at edge-interior
    source points subdivides on demand (results are cached); the constructed
    system itself is never mutated beyond that cache, so concurrent reads
    are safe.
    """

    def __init__(self, base_graph: MetrizedGraph, divisor: RDivisor):
        deg = divisor.degree()
        if deg == -2:
            raise DegreeMinusTwo("divisor has degree -2")
        base_graph.validate()
        graph, d, rel = _vertexify(base_graph, divisor)
        self.base_graph = base_graph
        self.graph = graph
        self.divisor = d
        self.degree = deg
        self._to_solver = rel
        self.measure = admissible_measure(graph, d)
        assert self.measure.graph is graph
        mass = self.measure.total_mass()
        if mass != 1:
            raise ConstancyViolation(f"measure has total mass {mass}, not 1")
        self._cols = _green_columns(graph, self.measure)
        self._interior_cache: dict = {}

    # -- evaluation ----------------------------------------------------

    def eval(self, x, y) -> Fraction:
        """g(x, y) for points of the original (unsubdivided) graph."""
        return self._eval_solver(
            self._to_solver(as_point(x)), self._to_solver(as_point(y))
        )

    def _eval_solver(self, x: GraphPoint, y: GraphPoint) -> Fraction:
        x = self.graph.check_point(x)
        y = self.graph.check_point(y)
        if not x.is_vertex and y.is_vertex:
            x, y = y, x
        if x.is_vertex:
            col = self._cols[x.vertex]
            if y.is_vertex:
                return col[y.vertex]
            return _quad_eval(self.graph, self.measure, col, y)
        sub_graph, sub_measure, rel, w, col = self._interior(x)
        y2 = rel(y)
        if y2.is_vertex:
            return col[y2.vertex]
        return _quad_eval(sub_graph, sub_measure, col, y2)

    def _interior(self, x: GraphPoint):
        key = (x.edge, x.offset)
        hit = self._interior_cache.get(key)
        if hit is not None:
            return hit
        sub, w, rel = subdivide_at(self.graph, x)
        rho = self.measure.densities.get(x.edge, Fraction(0))
        densities = {}
        for e in sub.edges:
            if e.id in self.graph.edge_by_id:
                densities[e.id] = self.measure.densities.get(e.id, Fraction(0))
            else:
                densities[e.id] = rho  # the two halves of x's edge
        atoms = dict(self.measure.atoms)
        atoms[w] = Fraction(0)
        sub_measure = AdmissibleMeasure(sub, atoms, densities)
        col = _green_columns(sub, sub_measure, [w])[w]
        entry = (sub, sub_measure, rel, w, col)
        self._interior_cache[key] = entry
        return entry

    # -- derived quantities ---------------------------------------------

    def green_of_divisor(self, y) -> Fraction:
        """g(D, y) = sum of a_i g(P_i, y)."""
        return self._green_of_divisor_solver(self._to_solver(as_point(y)))

    def _green_of_divisor_solver(self, y: GraphPoint) -> Fraction:
        y = self.graph.check_point(y)
        total = Fraction(0)
        for p, a in self.divisor.items():
            col = self._cols[p.vertex]
            if y.is_vertex:
                total += a * col[y.vertex]
            else:
                total += a * _quad_eval(self.graph, self.measure, col, y)
        return total

    def green_diagonal(self, y) -> Fraction:
        return self.eval(y, y)

    def pairing_dd(self) -> Fraction:
        """g(D, D) = sum over i, j of a_i a_j g(P_i, P_j)."""
        items = self.divisor.items()
        total = Fraction(0)
        for p, a in items:
            col = self._cols[p.vertex]
            for q, b in items:
                total += a * b * col[q.vertex]
        return total


def green_system(g: MetrizedGraph, d: RDivisor) -> GreenSystem:
    return GreenSystem(g, d)


def constant_c(s: GreenSystem) -> Fraction:
    """The constant value of g(D, y) + g(y, y).

    Constancy is verified at every vertex and at three interior samples per
    edge (enough to determine the per-edge quadratic); any disagreement
    raises ConstancyViolation.
    """
    samples: list[tuple] = [(GraphPoint.at_vertex(v), v) for v in s.graph.vertex_list]
    for e in s.graph.edges:
        for num in (1, 2, 3):
            t = e.length * Fraction(num, 4)
            samples.append((GraphPoint.on_edge(e.id, t), (e.id, num)))

    value = None
    where = None
    for y, label in samples:
        c = s._green_of_divisor_solver(y) + s._eval_solver(y, y)
        if value is None:
            value, where = c, label
        elif c != value:
            raise ConstancyViolation(
                f"g(D,y) + g(y,y) is {value} at {where!r} but {c} at {label!r}"
            )
    return value


def e_of_system(s: GreenSystem) -> Fraction:
    c = constant_c(s)
    return 2 * s.degree * c - s.pairing_dd()


# -- split-edge ids of subdivided graphs -------------------------------------


def _original_edge(edge_id):
    while isinstance(edge_id, tuple) and edge_id and edge_id[0] == "split":
        edge_id = edge_id[1]
    return edge_id


# -- node classification, one walk per node ---------------------------------


def _side_genus(cfg, graph, node, start) -> int:
    """Arithmetic genus of the component of graph-minus-node containing
    start: component genera plus the side's first Betti number."""
    seen = {start}
    stack = [start]
    n_edges = 0
    while stack:
        v = stack.pop()
        for e, end in graph.incident(v):
            if e.id == node.id:
                continue
            if end == 0:
                n_edges += 1  # count each non-loop edge once, from its u end
            elif e.is_loop():
                continue
            w = e.v if end == 0 else e.u
            if w not in seen:
                seen.add(w)
                stack.append(w)
    betti = n_edges - len(seen) + 1
    return sum(cfg.genus_of(v) for v in seen) + betti


def classify_node(cfg: FiberConfiguration, node_id) -> NodeType:
    """Type of a node: 0 when removing it keeps the configuration connected,
    otherwise the minimum of the two sides' arithmetic genera."""
    node = cfg.node_by_id.get(node_id)
    if node is None:
        raise NodeNotFound(f"node {node_id!r} is not in the configuration")
    graph = configuration_graph(cfg)
    if node.is_self_node():
        return NodeType(node_id, 0)
    rest = MetrizedGraph(
        graph.vertex_list, [e for e in graph.edges if e.id != node_id]
    )
    if rest.connects(node.a, node.b):
        return NodeType(node_id, 0)
    ga = _side_genus(cfg, graph, node, node.a)
    gb = _side_genus(cfg, graph, node, node.b)
    return NodeType(node_id, min(ga, gb))


def is_chain_of_stable_components(cfg: FiberConfiguration) -> bool:
    """True iff the configuration graph with loops removed is a simple path
    (a single vertex counts, degenerately)."""
    graph = configuration_graph(cfg)
    if not graph.is_connected():
        raise Disconnected("fiber configuration is not connected")
    plain = [e for e in graph.edges if not e.is_loop()]
    n = len(graph.vertex_list)
    if len(plain) != n - 1:
        return False  # a cycle among components, or disconnected
    pairs = set()
    degree = {v: 0 for v in graph.vertex_list}
    for e in plain:
        key = frozenset((e.u, e.v))
        if key in pairs:
            return False
        pairs.add(key)
        degree[e.u] += 1
        degree[e.v] += 1
    return all(d <= 2 for d in degree.values())


def delta_vector(cfg: FiberConfiguration) -> list[int]:
    """Counts of nodes by `classify_node` type, indexed 0..floor(g/2), g
    being the component genera plus the first Betti number of a connected
    configuration."""
    genus = sum(c.genus for c in cfg.components)
    genus += len(cfg.nodes) - len(cfg.components) + 1
    counts = [0] * (genus // 2 + 1)
    for n in cfg.nodes:
        counts[classify_node(cfg, n.id).type] += 1
    return counts


def unstable_components(cfg: FiberConfiguration) -> list:
    """Components, in order, whose omega coefficient 2 genus - 2 +
    branches is not positive, a self-node giving its component two
    branches."""
    branches = {c.id: 0 for c in cfg.components}
    for n in cfg.nodes:
        branches[n.a] += 1
        branches[n.b] += 1
    return [
        c.id for c in cfg.components
        if Fraction(2 * c.genus - 2 + branches[c.id]) <= 0
    ]


# -- decimal formatting, by exponent search ----------------------------------


def decimal12(x) -> str:
    """Positional decimal with 12 significant digits, round half up."""
    fr = Fraction(x)
    if fr == 0:
        return "0.00000000000"
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    e = 0
    while 10**e > fr:
        e -= 1
    while fr >= 10 ** (e + 1):
        e += 1
    scaled = fr / Fraction(10) ** (e - 11)
    digits = int(scaled)
    if scaled - digits >= Fraction(1, 2):
        digits += 1
    if digits >= 10**12:
        digits //= 10
        e += 1
    s = str(digits)
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{s}"
    if e >= 11:
        return f"{sign}{s}{'0' * (e - 11)}"
    return f"{sign}{s[: e + 1]}.{s[e + 1 :]}"


# -- point reads on the fast type ----------------------------------------------


def potential_read(f, x: GraphPoint) -> tuple:
    """`_Potential.read` of the potential f, on its row of `potential_row`,
    built afresh: x's spread weights (i, j, a) and f(x)."""
    if x.is_vertex:
        i = f.index[x.vertex]
        return (i, i, 0), f.at_vertex[i]
    i, j, l, c, value, slope, curv, tents = potential_row(f, x.edge)
    t = x.offset
    rest = l - t
    value += t * (slope + rest * curv)
    if tents:
        offsets, before, after = tents
        k = bisect_right(offsets, t)
        if k:  # the tents at s <= t
            value -= before[k] * rest * c
        if k < len(offsets):  # and those at s > t
            value -= after[k] * t * c
    return (i, j, t * c), value


def potential_row(f, edge) -> tuple:
    """The row of an edge: (i, j, l, 1/l, value at u, slope, coefficient,
    tents), tents None or (offsets, before, after) with before[k] the sum
    of w s over the first k tents by offset and after[k] that of w (l - s)
    over the others; `potential_read` reads neither sum of no tents."""
    i, j, l, c, rho_l = f.edges[edge]
    pu = f.at_vertex[i]
    slope = (f.at_vertex[j] - pu) * c
    curv = rho_l * c
    if f.factor != 1:
        curv *= f.factor
    tents = None
    listed = f.inside.get(edge)
    if listed:
        listed = sorted(listed)
        before, after = [0], [0]
        for s, w in listed:
            before.append(before[-1] + w * s)
        for s, w in reversed(listed):
            after.append(after[-1] + w * (l - s))
        tents = [s for s, _ in listed], before, after[::-1]
    return i, j, l, c, pu, slope, curv, tents


def pair(kernel, f, x: GraphPoint, y: GraphPoint) -> tuple:
    """`ResistanceKernel.pair` of the kernel: f(x) + f(y) and X(x, y), for
    a potential f and points in the normal form of `check_point`."""
    (i, j, a), fx = potential_read(f, x)
    (k, m, b), fy = potential_read(f, y)
    gamma = kernel._factors.inverse_entry
    z = gamma(i, k)
    if b:
        z += b * (gamma(i, m) - z)
    if a:
        w = gamma(j, k)
        if b:
            w += b * (gamma(j, m) - w)
        z += a * (w - z)
        if b and x.edge == y.edge:  # s(l - t)/l = s(1 - t/l)
            z += min(x.offset, y.offset) * (1 - max(a, b))
    return fx + fy, z


def kernel_resistance(kernel, p: GraphPoint, q: GraphPoint) -> Fraction:
    """r(p, q) = S(p) + S(q) - 2X(p, q), by `pair` on the kernel's S."""
    f, x = pair(kernel, kernel.ground, p, q)
    return linalg.plain(f - 2 * x)


def kernel_green(system, x: GraphPoint, y: GraphPoint) -> Fraction:
    """g(x, y) = h(x) + h(y) + X(x, y) - c, by `pair` on the system's h."""
    f, z = pair(system._kernel, system._h, x, y)
    return linalg.plain(f + z - system.c)
