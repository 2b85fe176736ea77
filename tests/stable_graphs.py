"""Every stable graph of a given genus, up to isomorphism.

A stable graph of genus g is a connected multigraph, loops and parallel edges
allowed, whose vertices carry genera g_v >= 0, such that
sum g_v + (E - V + 1) = g and every vertex is stable: 2 g_v - 2 + val(v) > 0,
a loop counting twice in the valence.  They are the dual graphs of stable
curves of genus g: at most 2g - 2 vertices and 3g - 3 edges.

The enumeration is brute force: every vertex count, every tuple of vertex
genera and every multiset of edges of the right size, kept when connected
and stable, and reduced to a canonical form, the least relabelling over all
vertex permutations.  There are 7 graphs of genus 2 and 42 of genus 3
(Maggiolo & Pagani, "Generating stable modular graphs", J. Symbolic Comput.
46 (2011)).

    python tests/stable_graphs.py 3     # prints the count and each graph
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from mg import FiberConfiguration


@dataclass(frozen=True, order=True)
class StableGraph:
    genera: tuple[int, ...]  # genus of vertex i
    edges: tuple[tuple[int, int], ...]  # sorted (i, j) with i <= j; i == j a loop

    def configuration(self, lengths=None) -> FiberConfiguration:
        """The fiber configuration: component Ci of genus genera[i], node nk
        for edge k, with length lengths[k] (1 when not given)."""
        lengths = lengths or [Fraction(1)] * len(self.edges)
        return FiberConfiguration(
            [(f"C{i}", g) for i, g in enumerate(self.genera)],
            [(f"n{k}", f"C{i}", f"C{j}", l)
             for k, ((i, j), l) in enumerate(zip(self.edges, lengths))],
        )


def _connected(n: int, edges) -> bool:
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in edges:
        parent[root(i)] = root(j)
    return len({root(v) for v in range(n)}) == 1


def _stable(genera, edges) -> bool:
    valence = [0] * len(genera)
    for i, j in edges:
        valence[i] += 1
        valence[j] += 1
    return all(2 * g - 2 + val > 0 for g, val in zip(genera, valence))


def _canonical(genera, edges) -> StableGraph:
    n = len(genera)
    best = None
    for perm in permutations(range(n)):
        relabelled = [0] * n
        for i, g in enumerate(genera):
            relabelled[perm[i]] = g
        key = StableGraph(
            tuple(relabelled),
            tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges)),
        )
        if best is None or key < best:
            best = key
    return best


def stable_graphs(g: int) -> list[StableGraph]:
    """The stable graphs of genus g >= 2, each once, in canonical order."""
    found = set()
    for n in range(1, 2 * g - 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for genera in product(range(g + 1), repeat=n):
            n_edges = g - sum(genera) + n - 1
            if not 0 <= n_edges <= 3 * g - 3:
                continue
            for edges in combinations_with_replacement(slots, n_edges):
                if _connected(n, edges) and _stable(genera, edges):
                    found.add(_canonical(genera, edges))
    return sorted(found)


if __name__ == "__main__":
    graphs = stable_graphs(int(sys.argv[1]))
    print(len(graphs))
    for sg in graphs:
        print(sg.genera, sg.edges)
