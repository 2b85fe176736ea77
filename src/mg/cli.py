"""Command line front end.

Subcommands operate on the text formats of `fileformat`; every report prints
exact rationals as p/q together with a 12-significant-digit decimal, and
`--json` switches to one JSON object per computed quantity with the fields
{command, inputs, exact, decimal, warnings}.  `_write_json` writes them, byte
for byte as `json.dumps(payload, sort_keys=True, indent=2)` would, without
its pure-Python indenting encoder.  Exit codes: 0 success, 2 input error, 3
mathematical precondition violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
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
    exit code of the command.  A record is the tuple (command, decimal,
    exact, inputs, warnings) that `_write_json` writes."""

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.lines: list[str] = []
        self.records: list[tuple] = []
        self.code = 0

    def _add(self, name, line, exact, dec, warnings=(), extra=None):
        self.lines.append(line)
        self.lines.extend(f"warning: {w}" for w in warnings)
        inputs = {**self.inputs, "quantity": name, **(extra or {})}
        self.records.append((self.command, dec, exact, inputs, warnings))

    def value(self, name: str, value: Fraction, warnings=(), label=None, extra=None):
        exact = str(value)
        dec = decimal12(value)
        self._add(name, f"{label or name} = {exact} ({dec})", exact, dec, warnings, extra)

    def text(self, name: str, content: str, label=None, extra=None):
        self._add(name, f"{label or name} = {content}", content, None, extra=extra)

    def float_value(self, name: str, value: float, label=None):
        dec = decimal12(Fraction(value))
        self._add(name, f"{label or name} ~= {dec}", None, dec)

    def error(self, file: str, exc: InputError | PreconditionError):
        """`exc` stopped the work on `file`: an error line, whose control
        characters, as of a file name in it, are escaped, a record with a
        null exact and decimal, and the exit code unless one is set."""
        self.lines.append(_error_line(exc).translate(_CONTROLS))
        message = f"{type(exc).__name__}: {exc}"
        self.records.append((self.command, None, None, {"file": file}, (message,)))
        self.code = self.code or _exit_code(exc)


def _input_json(value) -> str:
    """An `inputs` value in JSON: a str, an int or a bool.  Anything else
    raises TypeError, so it is never written wrongly."""
    if isinstance(value, str):
        return _quote(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot write {value!r} as a JSON input")


def _record_json(record: tuple, pad: str) -> str:
    """One record as `json.dumps(..., sort_keys=True, indent=2)` writes it,
    at the depth whose indentation is `pad`: the fields in sorted order and
    strings escaped by the encoder `json` itself uses (a non-str field,
    input name or warning raises TypeError)."""
    command, dec, exact, inputs, warnings = record
    inner = pad + "  "
    entry = "\n" + inner + "  "  # starts each entry of inputs and warnings
    sep = "," + entry
    inputs_json, warnings_json = "{}", "[]"
    if inputs:
        fields = sep.join([f"{_quote(k)}: {_input_json(v)}" for k, v in sorted(inputs.items())])
        inputs_json = "{" + entry + fields + "\n" + inner + "}"
    if warnings:
        warnings_json = "[" + entry + sep.join(map(_quote, warnings)) + "\n" + inner + "]"
    return (
        f'{{\n{inner}"command": {_quote(command)},\n'
        f'{inner}"decimal": {"null" if dec is None else _quote(dec)},\n'
        f'{inner}"exact": {"null" if exact is None else _quote(exact)},\n'
        f'{inner}"inputs": {inputs_json},\n'
        f'{inner}"warnings": {warnings_json}\n{pad}}}'
    )


def _write_json(write, records: list):
    """The `--json` output, newline included, through `write`: one record
    as a bare object, any other number as a list.  Every record is
    formatted before the first is written, so one that cannot be written
    leaves no output, and then they are written one by one, so the text is
    never held as one more string."""
    if len(records) == 1:
        write(_record_json(records[0], "") + "\n")
        return
    texts = [_record_json(r, "  ") for r in records]
    write("[")
    lead = "\n  "
    for text in texts:
        write(lead)
        write(text)
        lead = ",\n  "
    write("\n]\n" if texts else "]\n")


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


def _graph_command(args, command: str, *params):
    """What a graph command reads: the graph, named points and divisor of
    `args.file`, a Report whose inputs are the file and the arguments
    `params`, and the point each of those arguments names, in that order.
    UnknownVertex for an argument that names no point."""
    graph, names, divisor = parse_graph_file(_read(args.file))
    labels = [getattr(args, param) for param in params]
    for label in labels:
        if label not in names:
            raise UnknownVertex(f"unknown point or vertex {label!r}")
    rep = Report(command, {"file": args.file, **dict(zip(params, labels))})
    return (graph, names, divisor, rep, *[names[label] for label in labels])


def _cmd_resistance(args) -> Report:
    graph, _, _, rep, p, q = _graph_command(args, "resistance", "p", "q")
    rep.value("r", effective_resistance(graph, p, q), label=f"r({args.p},{args.q})")
    return rep


def _cmd_green(args) -> Report:
    graph, _, divisor, rep, x, y = _graph_command(args, "green", "x", "y")
    s = green_system(graph, divisor)
    rep.value("g", s.eval(x, y), label=f"g({args.x},{args.y})")
    return rep


def _cmd_measure(args) -> Report:
    graph, names, divisor, rep = _graph_command(args, "measure")
    mu = green_system(graph, divisor).measure
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
    graph, _, divisor, rep = _graph_command(args, "e-invariant")
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


# The switches of `mg bounds`: each is an input of its records, and `mg
# bounds radius` echoes them in its `flags` line.
_FLAGS = ("hyperelliptic", "smooth", "irreducible")


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
    flags = {flag: getattr(args, flag) for flag in _FLAGS}
    inputs = {
        "genus": g,
        "lambda": str(lam),
        "delta": ",".join(str(d) for d in delta),
        **flags,
    }
    rep = Report(f"bounds-{args.which}", inputs)
    if args.which == "slope":
        check = bounds_mod.slope_check(stats)
        rep.value("lhs", check.lhs)
        rep.value("rhs", check.rhs)
        rep.value("slack", check.slack)
        rep.text("holds", "true" if check.holds else "false")
        return rep
    if args.which == "radius":
        rsq = bounds_mod.radius_sq_closed_form(g, delta, irreducible=args.irreducible)
    else:  # reference
        rsq = bounds_mod.reference_radius_sq(stats, irreducible=args.irreducible)
    rep.value("radius^2", rsq)
    rep.float_value("radius", math.sqrt(rsq))
    if args.which == "radius":
        rep.text("flags", " ".join(f"{flag}={str(v).lower()}" for flag, v in flags.items()))
    return rep


def _cmd_oracle_green(args) -> Report:
    graph, _, divisor, rep, x, y = _graph_command(args, "oracle-green", "x", "y")
    h = parse_rational(args.h)
    rep.inputs["h"] = str(h)
    value = oracle_mod.numeric_green(graph, divisor, x, y, h)
    rep.float_value("g", value, label=f"g({args.x},{args.y})")
    rep.lines[-1] += f" (h = {h})"
    return rep


# What `mg batch` runs on a file, by its suffix.
_BATCH = {".mg": _cmd_e_invariant, ".fib": _cmd_fiber_analyze}

# Each control character as a Python string literal escapes it (a line
# feed as a backslash and "n"), so that no file name can start a line of
# `mg batch`'s text output.
_CONTROLS = {c: repr(chr(c))[1:-1] for c in [*range(32), *range(127, 160)]}


def _cmd_batch(args) -> Report:
    root = Path(args.dir)
    if not root.is_dir():
        raise InputError(f"not a directory: {args.dir}")
    rep = Report("batch", {})
    for path in sorted(root.iterdir()):
        if path.suffix not in _BATCH:
            continue
        rep.lines.append(f"== {path.name.translate(_CONTROLS)} ==")
        try:
            one = _BATCH[path.suffix](argparse.Namespace(file=str(path)))
        except (InputError, PreconditionError) as exc:
            rep.error(str(path), exc)
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


def _command(sub, name: str, help: str, positionals: str, handler):
    """Declare command `name` in the subparsers `sub`: its help, its
    positional arguments (named in one string) and its handler.  Returns
    its parser, for any option it has."""
    p = sub.add_parser(name, help=help)
    for dest in positionals.split():
        p.add_argument(dest)
    p.set_defaults(handler=handler)
    return p


def _group(sub, name: str, help: str):
    """Declare command group `name` in the subparsers `sub`; returns the
    subparsers of its commands."""
    return sub.add_parser(name, help=help).add_subparsers(dest=f"{name}_command", required=True)


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
    _command(sub, "resistance", "effective resistance between two points", "file p q",
             _cmd_resistance)
    _command(sub, "green", "Green function value g(x, y)", "file x y", _cmd_green)
    _command(sub, "measure", "admissible measure of the file's (G, D)", "file", _cmd_measure)
    _command(sub, "e-invariant", "the invariant e(G, D)", "file", _cmd_e_invariant)
    fiber = _group(sub, "fiber", "fiber configuration commands")
    _command(fiber, "analyze", "genus, node types, e_y", "file", _cmd_fiber_analyze)
    p = _command(sub, "bounds", "slope and Bogomolov bound arithmetic", "", _cmd_bounds)
    p.add_argument("which", choices=["slope", "radius", "reference"])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--lambda", dest="lambda_deg", default=None)
    p.add_argument("--delta", default="")
    for flag in _FLAGS:
        p.add_argument(f"--{flag}", action="store_true")
    oracle = _group(sub, "oracle", "floating-point cross checks")
    p = _command(oracle, "green", "discretized Green value", "file x y", _cmd_oracle_green)
    p.add_argument("--h", required=True, help="grid size (rational)")
    _command(sub, "batch", "evaluate every .mg/.fib file in a directory", "dir", _cmd_batch)
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


def _print_lines(lines):
    """Print each line to stdout.  A line that stdout's encoding cannot
    write goes out in the file system's encoding instead, so a file name in
    it keeps its bytes on disk, as in the C locale: one that is not UTF-8,
    which `os.fsdecode` read into lone surrogates, or one that is not ASCII
    on an ASCII stdout."""
    for line in lines:
        try:
            print(line)
        except UnicodeEncodeError:
            sys.stdout.flush()
            sys.stdout.buffer.write(os.fsencode(line) + b"\n")


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
            _write_json(sys.stdout.write, rep.records)
        else:
            _print_lines(rep.lines)
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
