#!/usr/bin/env python3
"""One-off traced probe of the baseline graph families.

    python3 bench/probe.py [--seed 1]

Cycle plus chords with V in {8, 16, 24, 32} and E = 3V/2: one `green_system`
plus `constant_c`, with the stage times of `canonical_measure`,
`green_system` and `constant_c` and the number of exact eliminations
(`solve_columns` calls).  Chain fibers of genus-2 components with N in
{20, 40, 80}: one `fiber_report`.  Prints one JSON object per case.  Takes
about half a minute; the N = 80 chain dominates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if not (SRC / "mg" / "__init__.py").is_file():
        print(f"error: no mg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs
    import mg.fibers
    import mg.green
    from spans import Tracer
    from workloads import config_of, divisor_of, graph_of

    rng = inputs.rng_for("probe", args.seed)
    cases = []
    for n in (8, 16, 24, 32):
        spec = inputs.cycle_chords(rng, n, 3 * n // 2)
        spec.divisor = inputs.placed_divisor(rng, spec.vertices, 0)
        cases.append(("cycle+chords", n, len(spec.edges), spec))
    for n in (20, 40, 80):
        spec = inputs.ChainSpec([2] * n, [(f"b{i}", 1) for i in range(n - 1)], [])
        cases.append(("chain-genus2", n, n - 1, spec))

    for family, n, n_edges, spec in cases:
        tracer = Tracer()
        tracer.install()
        t0 = perf_counter()
        try:
            if family == "cycle+chords":
                system = mg.green.green_system(graph_of(spec), divisor_of(spec))
                mg.green.constant_c(system)
            else:
                mg.fibers.fiber_report(config_of(spec))
        finally:
            total = perf_counter() - t0
            tracer.uninstall()
        solves, subdivides, classifies = tracer.exact_counts()
        print(json.dumps({
            "family": family, "size": n, "edges": n_edges,
            "solve_columns": solves, "subdivide_at": subdivides,
            "classify_node": classifies, "total_s": round(total, 4),
            "canonical_measure_s": round(tracer.incl("mg.green.canonical_measure"), 4),
            "green_system_s": round(tracer.incl("mg.green.green_system"), 4),
            "constant_c_s": round(tracer.incl("mg.green.constant_c"), 4),
            "fiber_report_s": round(tracer.incl("mg.fibers.fiber_report"), 4),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
