"""Command line front end.

Subcommands operate on the text formats of `fileformat`; every report prints
exact rationals as p/q together with a 12-significant-digit decimal, and
`--json` switches to one JSON object per computed quantity with the fields
{command, inputs, exact, decimal, warnings}.  Exit codes: 0 success, 2 input
error, 3 mathematical precondition violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import fibers as fibers_mod
from . import oracle as oracle_mod
from .errors import InputError, PreconditionError, UnknownVertex, UnreadableFile
from .fileformat import parse_fiber_file, parse_graph_file, parse_rational
from .graphs import as_point
from .green import e_invariant, green_system
from .resistance import effective_resistance


_DECIMAL12 = Context(prec=12, rounding=ROUND_HALF_UP)


def decimal12(x: Fraction) -> str:
    """Positional decimal with 12 significant digits, round half up."""
    if not x.numerator:
        return "0.00000000000"
    d = _DECIMAL12.divide(Decimal(x.numerator), Decimal(x.denominator))
    # pad to 12 digits: 1/4 divides to 0.25
    unit = Decimal(1).scaleb(d.adjusted() - 11)
    return format(d.quantize(unit, context=_DECIMAL12), "f")


class Report:
    """Accumulates plain-text lines and JSON records side by side, and the
    exit code of the command."""

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.lines: list[str] = []
        self.records: list[dict] = []
        self.code = 0

    def _add(self, name, line, exact, dec, warnings=(), extra=None):
        self.lines.append(line)
        self.lines.extend(f"warning: {w}" for w in warnings)
        self.records.append(
            {
                "command": self.command,
                "inputs": {**self.inputs, "quantity": name, **(extra or {})},
                "exact": exact,
                "decimal": dec,
                "warnings": list(warnings),
            }
        )

    def value(self, name: str, value: Fraction, warnings=(), label=None, extra=None):
        exact = str(value)
        dec = decimal12(value)
        self._add(name, f"{label or name} = {exact} ({dec})", exact, dec, warnings, extra)

    def text(self, name: str, content: str, label=None, extra=None):
        self._add(name, f"{label or name} = {content}", content, None, extra=extra)

    def float_value(self, name: str, value: float, label=None):
        dec = decimal12(Fraction(value))
        self._add(name, f"{label or name} ~= {dec}", None, dec)


def _read(path) -> str:
    """The text of a UTF-8 file.  Anything but a regular file is rejected
    before it is opened (opening a FIFO blocks, and a device may never end);
    that, and an unreadable or undecodable file, is an input error."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise UnreadableFile(f"{path}: not a regular file")
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise UnreadableFile(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


def _resolve(names: dict, label: str):
    if label not in names:
        raise UnknownVertex(f"unknown point or vertex {label!r}")
    return names[label]


def _cmd_resistance(args) -> Report:
    graph, names, _ = parse_graph_file(_read(args.file))
    p = _resolve(names, args.p)
    q = _resolve(names, args.q)
    rep = Report("resistance", {"file": args.file, "p": args.p, "q": args.q})
    rep.value("r", effective_resistance(graph, p, q), label=f"r({args.p},{args.q})")
    return rep


def _cmd_green(args) -> Report:
    graph, names, divisor = parse_graph_file(_read(args.file))
    x = _resolve(names, args.x)
    y = _resolve(names, args.y)
    s = green_system(graph, divisor)
    rep = Report("green", {"file": args.file, "x": args.x, "y": args.y})
    rep.value("g", s.eval(x, y), label=f"g({args.x},{args.y})")
    return rep


def _cmd_measure(args) -> Report:
    graph, names, divisor = parse_graph_file(_read(args.file))
    mu = green_system(graph, divisor).measure
    rep = Report("measure", {"file": args.file})
    rep.value("mass", mu.total_mass())
    labels = {}
    for name, p in names.items():
        labels.setdefault(p, name)
    for site, atom in mu.atoms.items():
        label = labels.get(as_point(site)) or str(site)
        rep.value("atom", atom, label=f"atom {label}", extra={"site": label})
    for e in graph.edges:
        rep.value("density", mu.density(e.id), label=f"density {e.id}",
                  extra={"site": str(e.id)})
    return rep


def _cmd_e_invariant(args) -> Report:
    graph, _, divisor = parse_graph_file(_read(args.file))
    rep = Report("e-invariant", {"file": args.file})
    rep.value("e", e_invariant(graph, divisor))
    return rep


def _cmd_fiber_analyze(args) -> Report:
    cfg = parse_fiber_file(_read(args.file))
    report = fibers_mod.fiber_report(cfg)
    rep = Report("fiber-analyze", {"file": args.file})
    rep.text("g", str(report.genus))
    rep.text("delta", ",".join(str(d) for d in report.delta))
    for comp in sorted(report.omega, key=str):
        rep.text("omega", str(report.omega[comp]), label=f"omega {comp}",
                 extra={"component": str(comp)})
    rep.text("chain", "true" if report.is_chain else "false")
    rep.value("e_y", report.e, warnings=report.warnings)
    if report.e_closed_form is not None:
        rep.value("e_y_closed_form", report.e_closed_form, label="e_y closed form")
    return rep


def _parse_delta(raw: str, g: int):
    return [parse_rational(tok) for tok in raw.split(",")] if raw else [0] * (g // 2 + 1)


def _cmd_bounds(args) -> Report:
    g = args.genus
    bounds_mod.check_genus(g)
    delta = _parse_delta(args.delta, g)
    lam = parse_rational(args.lambda_deg) if args.lambda_deg is not None else Fraction(0)
    stats = bounds_mod.FibrationStats(
        g=g,
        lambda_deg=lam,
        delta=delta,
        smooth=args.smooth,
    )
    inputs = {
        "genus": g,
        "lambda": str(lam),
        "delta": ",".join(str(d) for d in delta),
        "hyperelliptic": args.hyperelliptic,
        "smooth": args.smooth,
        "irreducible": args.irreducible,
    }
    rep = Report(f"bounds-{args.which}", inputs)
    if args.which == "slope":
        check = bounds_mod.slope_check(stats)
        rep.value("lhs", check.lhs)
        rep.value("rhs", check.rhs)
        rep.value("slack", check.slack)
        rep.text("holds", "true" if check.holds else "false")
    elif args.which == "radius":
        rsq = bounds_mod.radius_sq_closed_form(g, delta)
        rep.value("radius^2", rsq)
        rep.float_value("radius", math.sqrt(rsq))
        rep.text(
            "flags",
            f"hyperelliptic={str(args.hyperelliptic).lower()} "
            f"smooth={str(args.smooth).lower()} "
            f"irreducible={str(args.irreducible).lower()}",
        )
    else:  # reference
        rsq = bounds_mod.reference_radius_sq(stats, irreducible=args.irreducible)
        rep.value("radius^2", rsq)
        rep.float_value("radius", math.sqrt(rsq))
    return rep


def _cmd_oracle_green(args) -> Report:
    graph, names, divisor = parse_graph_file(_read(args.file))
    x = _resolve(names, args.x)
    y = _resolve(names, args.y)
    h = parse_rational(args.h)
    value = oracle_mod.numeric_green(graph, divisor, x, y, h)
    rep = Report(
        "oracle-green",
        {"file": args.file, "x": args.x, "y": args.y, "h": str(h)},
    )
    rep.float_value("g", value, label=f"g({args.x},{args.y})")
    rep.lines[-1] += f" (h = {h})"
    return rep


def _cmd_batch(args) -> Report:
    root = Path(args.dir)
    if not root.is_dir():
        raise InputError(f"not a directory: {args.dir}")
    rep = Report("batch", {})
    for path in sorted(root.iterdir()):
        if path.suffix not in (".mg", ".fib"):
            continue
        ns = argparse.Namespace(file=str(path))
        rep.lines.append(f"== {path.name} ==")
        try:
            if path.suffix == ".mg":
                one = _cmd_e_invariant(ns)
            else:
                one = _cmd_fiber_analyze(ns)
        except (InputError, PreconditionError) as exc:
            rep.lines.append(_error_line(exc))
            rep.records.append(_error_record("batch", str(path), exc))
            rep.code = rep.code or _exit_code(exc)
        else:
            rep.lines.extend(one.lines)
            rep.records.extend(one.records)
        rep.lines.append("")
    return rep


def _exit_code(exc: InputError | PreconditionError) -> int:
    """2 for an input error, 3 for a failed mathematical precondition."""
    return 2 if isinstance(exc, InputError) else 3


def _error_line(exc: Exception) -> str:
    return f"error: {type(exc).__name__}: {exc}"


def _error_record(command: str, file: str, exc: Exception) -> dict:
    return {
        "command": command,
        "inputs": {"file": file},
        "exact": None,
        "decimal": None,
        "warnings": [f"{type(exc).__name__}: {exc}"],
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `mg` parser, built on first use; parsing leaves it unchanged, so
    one serves every call of `main`."""
    parser = argparse.ArgumentParser(
        prog="mg",
        description="exact invariants of metrized graphs and semistable fibers",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON records")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resistance", help="effective resistance between two points")
    p.add_argument("file")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(handler=_cmd_resistance)

    p = sub.add_parser("green", help="Green function value g(x, y)")
    p.add_argument("file")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_green)

    p = sub.add_parser("measure", help="admissible measure of the file's (G, D)")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("e-invariant", help="the invariant e(G, D)")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_e_invariant)

    p = sub.add_parser("fiber", help="fiber configuration commands")
    fiber_sub = p.add_subparsers(dest="fiber_command", required=True)
    q = fiber_sub.add_parser("analyze", help="genus, node types, e_y")
    q.add_argument("file")
    q.set_defaults(handler=_cmd_fiber_analyze)

    p = sub.add_parser("bounds", help="slope and Bogomolov bound arithmetic")
    p.add_argument("which", choices=["slope", "radius", "reference"])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--lambda", dest="lambda_deg", default=None)
    p.add_argument("--delta", default="")
    p.add_argument("--hyperelliptic", action="store_true")
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--irreducible", action="store_true")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("oracle", help="floating-point cross checks")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    q = oracle_sub.add_parser("green", help="discretized Green value")
    q.add_argument("file")
    q.add_argument("x")
    q.add_argument("y")
    q.add_argument("--h", required=True, help="grid size (rational)")
    q.set_defaults(handler=_cmd_oracle_green)

    p = sub.add_parser("batch", help="evaluate every .mg/.fib file in a directory")
    p.add_argument("dir")
    p.set_defaults(handler=_cmd_batch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # exact results may have more digits than the interpreter converts to
    # str by default; lift that process-wide limit for this call only
    # (Python before 3.10.7 has no limit)
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    previous = get_limit() if get_limit else None
    if get_limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        if get_limit:
            sys.set_int_max_str_digits(previous)


def _run(args) -> int:
    try:
        rep = args.handler(args)
    except (InputError, PreconditionError) as exc:
        print(_error_line(exc), file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            payload = rep.records[0] if len(rep.records) == 1 else rep.records
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            for line in rep.lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`mg ... | head`): send what is still
        # buffered to devnull, so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return rep.code


if __name__ == "__main__":
    sys.exit(main())
