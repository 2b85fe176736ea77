import argparse
import io
import itertools
import json
import os
import shlex
import shutil
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import mg.cli
import mg.green
import reference
from faults import fault_canonical, fault_inverse, fault_solve
from gen import cycle_chords, graph_file, path_file
from mg import AdmissibleMeasure, MAX_GENUS
from mg.cli import build_parser, decimal12, main
from mg.resistance import resistance_kernel

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


EXPONENTS = st.integers(-60, 60)
TWELVE_DIGITS = st.integers(10**11, 10**12 - 1)


@st.composite
def decimal_case(draw):
    """A fraction scaled by 10^e: arbitrary, a tie halfway between two
    12-digit decimals (up to 999999999999.5, which rounds to 10^12), or
    just below a power of ten."""
    scale = Fraction(10) ** draw(EXPONENTS)
    kind = draw(st.sampled_from(["any", "tie", "below"]))
    if kind == "any":
        x = draw(st.fractions(min_value=1, max_value=10))
    elif kind == "tie":
        x = Fraction(2 * draw(TWELVE_DIGITS) + 1, 2 * 10**11)
    else:
        x = 10 - Fraction(1, draw(st.integers(1, 10**15)))
    return draw(st.sampled_from([1, -1])) * x * scale


DECIMAL_CASES = st.one_of(
    decimal_case(),
    st.fractions(),
    # what Report.float_value passes
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
)


class TestDecimal12:
    def test_one(self):
        assert decimal12(Fraction(1)) == "1.00000000000"

    def test_zero(self):
        assert decimal12(Fraction(0)) == "0.00000000000"

    def test_third(self):
        assert decimal12(Fraction(1, 3)) == "0.333333333333"

    def test_negative(self):
        assert decimal12(Fraction(-1, 4)) == "-0.250000000000"

    def test_small(self):
        assert decimal12(Fraction(2, 135)) == "0.0148148148148"

    def test_large(self):
        assert decimal12(Fraction(10**14, 3)) == "33333333333300"

    def test_rounding_half_up(self):
        assert decimal12(Fraction(2, 3)) == "0.666666666667"

    @given(x=DECIMAL_CASES)
    def test_matches_exponent_search(self, x):
        assert decimal12(x) == reference.decimal12(x)


GOLDEN_CASES = [
    (["e-invariant", GOLDEN / "segment.mg"], "segment.e.expected"),
    (["measure", GOLDEN / "segment.mg"], "segment.measure.expected"),
    (["green", GOLDEN / "segment.mg", "P", "m"], "segment.green.expected"),
    (["e-invariant", GOLDEN / "circle.mg"], "circle.e.expected"),
    (["green", GOLDEN / "circle.mg", "O", "x"], "circle.green.expected"),
    (["resistance", GOLDEN / "circle.mg", "O", "x"], "circle.resistance.expected"),
    (["e-invariant", GOLDEN / "theta.mg"], "theta.e.expected"),
    (["measure", GOLDEN / "theta.mg"], "theta.measure.expected"),
    (["resistance", GOLDEN / "theta.mg", "P", "Q"], "theta.resistance.expected"),
    (["measure", GOLDEN / "interior.mg"], "interior.measure.expected"),
    (["e-invariant", GOLDEN / "interior.mg"], "interior.e.expected"),
    (["green", GOLDEN / "interior.mg", "m", "u"], "interior.green.expected"),
    (["resistance", GOLDEN / "interior.mg", "n", "a"], "interior.resistance.expected"),
    (["fiber", "analyze", GOLDEN / "chain.fib"], "chain.analyze.expected"),
    (["fiber", "analyze", GOLDEN / "selfnode.fib"], "selfnode.analyze.expected"),
    (["bounds", "radius", "--genus", "2", "--delta", "0,1"], "radius.expected"),
    (
        ["bounds", "slope", "--genus", "2", "--lambda", "1", "--delta", "0,1"],
        "slope.expected",
    ),
    (["bounds", "reference", "--genus", "2", "--delta", "1,1"], "reference.expected"),
    (
        ["oracle", "green", GOLDEN / "segment.mg", "P", "P", "--h", "1/8"],
        "oracle.expected",
    ),
]


def golden_id(argv, expected) -> str:
    """A golden case's test id, the same in every checkout and free of
    spaces: the command's words joined by "-", then the golden file's name
    in tests/golden."""
    words = itertools.takewhile(lambda a: isinstance(a, str) and not a.startswith("-"), argv)
    return f"{'-'.join(words)}:{expected}"


@pytest.mark.parametrize(
    "argv,expected", GOLDEN_CASES, ids=[golden_id(*case) for case in GOLDEN_CASES]
)
def test_golden_outputs(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == (GOLDEN / expected).read_text()


# The declared arguments of `mg` and of each subcommand, by prog: the
# command's help, the parser's description and, for each argument but
# argparse's own -h, (action class, dest, flags, default, choices, required,
# help, type).  The formatted help text is left out, as its layout differs
# between Python versions.
PARSER_SNAPSHOT = {
    "mg": (None, "exact invariants of metrized graphs and semistable fibers", [
        ("_StoreTrueAction", "json", ("--json",), False, None, False, "emit JSON records", None),
        ("_SubParsersAction", "command", (), None, None, True, None, None),
    ]),
    "mg resistance": ("effective resistance between two points", None, [
        ("_StoreAction", "file", (), None, None, True, None, None),
        ("_StoreAction", "p", (), None, None, True, None, None),
        ("_StoreAction", "q", (), None, None, True, None, None),
    ]),
    "mg green": ("Green function value g(x, y)", None, [
        ("_StoreAction", "file", (), None, None, True, None, None),
        ("_StoreAction", "x", (), None, None, True, None, None),
        ("_StoreAction", "y", (), None, None, True, None, None),
    ]),
    "mg measure": ("admissible measure of the file's (G, D)", None, [
        ("_StoreAction", "file", (), None, None, True, None, None),
    ]),
    "mg e-invariant": ("the invariant e(G, D)", None, [
        ("_StoreAction", "file", (), None, None, True, None, None),
    ]),
    "mg fiber": ("fiber configuration commands", None, [
        ("_SubParsersAction", "fiber_command", (), None, None, True, None, None),
    ]),
    "mg fiber analyze": ("genus, node types, e_y", None, [
        ("_StoreAction", "file", (), None, None, True, None, None),
    ]),
    "mg bounds": ("slope and Bogomolov bound arithmetic", None, [
        ("_StoreAction", "which", (), None, ("slope", "radius", "reference"), True, None, None),
        ("_StoreAction", "genus", ("--genus",), None, None, True, None, "int"),
        ("_StoreAction", "lambda_deg", ("--lambda",), None, None, False, None, None),
        ("_StoreAction", "delta", ("--delta",), "", None, False, None, None),
        ("_StoreTrueAction", "hyperelliptic", ("--hyperelliptic",), False, None, False, None, None),
        ("_StoreTrueAction", "smooth", ("--smooth",), False, None, False, None, None),
        ("_StoreTrueAction", "irreducible", ("--irreducible",), False, None, False, None, None),
    ]),
    "mg oracle": ("floating-point cross checks", None, [
        ("_SubParsersAction", "oracle_command", (), None, None, True, None, None),
    ]),
    "mg oracle green": ("discretized Green value", None, [
        ("_StoreAction", "file", (), None, None, True, None, None),
        ("_StoreAction", "x", (), None, None, True, None, None),
        ("_StoreAction", "y", (), None, None, True, None, None),
        ("_StoreAction", "h", ("--h",), None, None, True, "grid size (rational)", None),
    ]),
    "mg batch": ("evaluate every .mg/.fib file in a directory", None, [
        ("_StoreAction", "dir", (), None, None, True, None, None),
    ]),
}


def parser_snapshot(parser, help=None) -> dict:
    arguments = [
        (type(a).__name__, a.dest, tuple(a.option_strings), a.default,
         None if a.choices is None or isinstance(a.choices, dict) else tuple(a.choices),
         a.required, a.help, a.type and a.type.__name__)
        for a in parser._actions if not isinstance(a, argparse._HelpAction)
    ]
    out = {parser.prog: (help, parser.description, arguments)}
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            helps = {c.dest: c.help for c in a._choices_actions}
            for name, sub in a.choices.items():
                out.update(parser_snapshot(sub, helps[name]))
    return out


def test_parser_declares_what_it_did():
    assert parser_snapshot(build_parser()) == PARSER_SNAPSHOT


def readme_commands() -> list[list[str]]:
    """The argv of each `mg ...` example in README's "Command line" block,
    its comment and the brackets around optional flags taken out."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].replace("[", "").replace("]", "") for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("mg ")]


def handlers(parser) -> set:
    """The handler of each command under `parser`."""
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            return set().union(*map(handlers, a.choices.values()))
    return {parser.get_default("handler")}


def test_readme_examples_parse_and_cover_every_command():
    examples = {build_parser().parse_args(argv).handler for argv in readme_commands()}
    assert examples == handlers(build_parser())


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_one_parser_serves_successive_calls(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run(capsys, "--json", "e-invariant", "segment.mg")
    assert code == 0
    assert out == (GOLDEN / "segment.e.json.expected").read_text()
    code, out, _ = run(capsys, "fiber", "analyze", "chain.fib")
    assert code == 0
    assert out == (GOLDEN / "chain.analyze.expected").read_text()


def test_outputs_are_deterministic(capsys):
    _, first, _ = run(capsys, "fiber", "analyze", GOLDEN / "chain.fib")
    _, second, _ = run(capsys, "fiber", "analyze", GOLDEN / "chain.fib")
    assert first == second


class TestErrors:
    @pytest.mark.parametrize(
        "name,errname",
        [
            ("bad_header.mg", "ParseError"),
            ("bad_rational.mg", "BadRational"),
            ("zero_length.mg", "NonpositiveLength"),
            ("disconnected.mg", "Disconnected"),
            ("unknown_vertex.mg", "UnknownVertex"),
        ],
    )
    def test_input_errors_exit_2(self, capsys, name, errname):
        code, out, err = run(capsys, "e-invariant", GOLDEN / name)
        assert code == 2
        assert errname in err

    def test_degree_minus_two_exits_3(self, capsys):
        code, out, err = run(capsys, "e-invariant", GOLDEN / "degree_minus_two.mg")
        assert code == 3
        assert "DegreeMinusTwo" in err

    def test_genus_small_exits_3(self, capsys):
        code, out, err = run(capsys, "fiber", "analyze", GOLDEN / "genus_small.fib")
        assert code == 3
        assert "GenusTooSmall" in err

    def test_unknown_component_exits_2(self, capsys):
        code, out, err = run(
            capsys, "fiber", "analyze", GOLDEN / "unknown_component.fib"
        )
        assert code == 2
        assert "UnknownComponent" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "slope", "--genus", "2", "--delta=-1,0"],
            ["bounds", "radius", "--genus", "2", "--smooth", "--delta", "1,0"],
            # a node of type 1 on an irreducible fibration
            ["bounds", "reference", "--genus", "3", "--delta", "1,1", "--irreducible"],
            ["bounds", "radius", "--genus", "3", "--delta", "1,2", "--hyperelliptic",
             "--irreducible"],
        ],
    )
    def test_bad_delta_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "BadDelta" in err

    @pytest.mark.parametrize("genus", [MAX_GENUS + 1, 10**23])
    def test_genus_above_cap_exits_2(self, capsys, tmp_path, genus):
        code, out, err = run(capsys, "bounds", "radius", "--genus", genus)
        assert code == 2
        assert "GenusTooLarge" in err
        fib = tmp_path / "big.fib"
        fib.write_text(f"fiber\ncomponent A genus {genus}\nnode n A A\n")
        code, out, err = run(capsys, "fiber", "analyze", fib)
        assert code == 2
        assert "GenusTooLarge" in err

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0661"])
    def test_genus_not_plain_digits_exits_2(self, capsys, tmp_path, token):
        fib = tmp_path / "exotic.fib"
        fib.write_text(f"fiber\ncomponent A genus {token}\nnode n A A\n")
        code, out, err = run(capsys, "fiber", "analyze", fib)
        assert code == 2
        assert "ParseError" in err

    @pytest.mark.parametrize("h", ["0", "-1", "1/100000000000000000000"])
    def test_bad_grid_size_exits_2(self, capsys, h):
        code, out, err = run(
            capsys, "oracle", "green", GOLDEN / "circle.mg", "O", "O", "--h", h
        )
        assert code == 2
        assert "BadGridSize" in err
        assert out == ""

    def test_bad_rational_names_its_line(self, capsys):
        code, out, err = run(capsys, "e-invariant", GOLDEN / "bad_rational.mg")
        assert code == 2
        assert err == (
            "error: BadRational: line 4: cannot parse '1/0' as a rational "
            "(p/q or an integer, at most 40 digits each)\n"
        )

    def test_bad_option_rational_names_no_line(self, capsys):
        code, out, err = run(capsys, "bounds", "slope", "--genus", "2", "--lambda", "1/0")
        assert code == 2
        assert err.startswith("error: BadRational: cannot parse '1/0' ")

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run(capsys, "e-invariant", GOLDEN / "nope.mg")
        assert code == 2

    @pytest.mark.parametrize(
        "name,argv", [("bad.mg", ["e-invariant"]), ("bad.fib", ["fiber", "analyze"])]
    )
    def test_undecodable_file_exits_2(self, capsys, tmp_path, name, argv):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, *argv, path)
        assert code == 2
        assert "UnreadableFile" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.skipif(
        resource is None or not Path("/dev/zero").exists(), reason="no /dev/zero"
    )
    def test_device_file_exits_2(self, tmp_path):
        # Read whole, /dev/zero would take all memory, so the command runs in
        # a child capped at 400 MB: should it read the device, it fails there.
        path = tmp_path / "x.mg"
        path.symlink_to("/dev/zero")
        cap = 400 << 20
        proc = subprocess.run(
            [sys.executable, "-m", "mg.cli", "e-invariant", str(path)],
            env={**os.environ, "PYTHONPATH": str(Path(mg.cli.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "UnreadableFile" in proc.stderr and "not a regular file" in proc.stderr
        assert proc.stdout == ""

    def test_unknown_point_name_exits_2(self, capsys):
        code, out, err = run(capsys, "resistance", GOLDEN / "segment.mg", "P", "zz")
        assert code == 2
        assert "UnknownVertex" in err


class TestWarnings:
    def test_library_warning_reaches_caller(self, capsys, monkeypatch):
        original = mg.cli.e_invariant

        def noisy(graph, divisor):
            warnings.warn("raised inside the handler", UserWarning)
            return original(graph, divisor)

        monkeypatch.setattr(mg.cli, "e_invariant", noisy)
        with pytest.warns(UserWarning, match="raised inside the handler"):
            code, out, _ = run(capsys, "e-invariant", GOLDEN / "segment.mg")
        assert code == 0
        assert out == (GOLDEN / "segment.e.expected").read_text()


class TestJson:
    def test_single_record(self, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        code, out, _ = run(capsys, "--json", "e-invariant", "segment.mg")
        assert code == 0
        assert out == (GOLDEN / "segment.e.json.expected").read_text()
        record = json.loads(out)
        assert record["exact"] == "1"
        assert record["decimal"] == "1.00000000000"
        assert record["warnings"] == []
        assert record["command"] == "e-invariant"
        assert record["inputs"]["quantity"] == "e"

    def test_measure_with_interior_atoms(self, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        code, out, _ = run(capsys, "--json", "measure", "interior.mg")
        assert code == 0
        assert out == (GOLDEN / "interior.measure.json.expected").read_text()

    def test_multi_record_array(self, capsys):
        code, out, _ = run(capsys, "--json", "fiber", "analyze", GOLDEN / "chain.fib")
        assert code == 0
        records = json.loads(out)
        assert isinstance(records, list)
        by_q = {r["inputs"]["quantity"]: r for r in records}
        assert by_q["e_y"]["exact"] == "5/3"
        assert by_q["g"]["exact"] == "3"

    def test_omega_records_name_their_component(self, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        code, out, _ = run(capsys, "--json", "fiber", "analyze", "chain.fib")
        assert code == 0
        assert out == (GOLDEN / "chain.analyze.json.expected").read_text()
        omega = [r for r in json.loads(out) if r["inputs"]["quantity"] == "omega"]
        assert [r["inputs"]["component"] for r in omega] == ["A", "B"]

    def test_oracle_has_null_exact(self, capsys):
        code, out, _ = run(
            capsys,
            "--json",
            "oracle",
            "green",
            GOLDEN / "segment.mg",
            "P",
            "P",
            "--h",
            "1/8",
        )
        record = json.loads(out)
        assert record["exact"] is None
        assert record["decimal"] == "0.250000000000"


# Every command's --json output, and each of the record shapes: int and
# bool inputs, a null exact, a warning.
JSON_CASES = [argv for argv, _ in GOLDEN_CASES] + [
    ["bounds", "radius", "--genus", "3", "--delta", "1,0", "--hyperelliptic",
     "--irreducible"],
    ["bounds", "reference", "--genus", "3", "--delta", "0,0", "--smooth"],
    ["fiber", "analyze", GOLDEN / "unstable.fib"],
]


@pytest.mark.parametrize("argv", JSON_CASES, ids=lambda x: str(x)[:40])
def test_json_is_what_json_dumps_writes(capsys, argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0, err
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_batch_json_is_what_json_dumps_writes(capsys, tmp_path):
    """Records of results, warnings and errors, the error naming a file
    whose undecodable name `os.fsdecode` turns into lone surrogates; and
    an empty directory writes an empty list."""
    shutil.copy(GOLDEN / "segment.mg", tmp_path / "a.mg")
    shutil.copy(GOLDEN / "unstable.fib", tmp_path / "b.fib")
    shutil.copy(GOLDEN / "zero_length.mg", tmp_path / "c.mg")
    if sys.platform == "linux":
        with open(os.fsencode(tmp_path) + b"/d\xff\x01.mg", "wb") as f:
            f.write(b"metrized_graph\n")
    code, out, _ = run(capsys, "--json", "batch", tmp_path)
    assert code == 2
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert len([r for r in json.loads(out) if r["exact"] is None]) == 1 + (
        sys.platform == "linux"
    )
    (tmp_path / "empty").mkdir()
    assert run(capsys, "--json", "batch", tmp_path / "empty") == (0, "[]\n", "")


FIELDS = ("command", "decimal", "exact", "inputs", "warnings")
# quotes, backslashes, control characters, non-BMP characters and lone
# surrogates among any others
JSON_CHARS = st.characters(blacklist_categories=()) | st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\U0001d11e", "\udcff", "\ud800"]
)
JSON_STRINGS = st.text(JSON_CHARS, max_size=8)
JSON_RECORDS = st.tuples(
    JSON_STRINGS,
    st.none() | JSON_STRINGS,
    st.none() | JSON_STRINGS,
    st.dictionaries(
        JSON_STRINGS,
        JSON_STRINGS | st.booleans() | st.integers() | st.integers(-(10**40), 10**40),
        max_size=4,
    ),
    st.lists(JSON_STRINGS, max_size=3),
)


def json_output(records) -> str:
    buf = io.StringIO()
    mg.cli._write_json(buf.write, records)
    return buf.getvalue()


@given(st.lists(JSON_RECORDS, max_size=4))
def test_json_output_matches_json_dumps(records):
    """None, one or several records of any content."""
    dicts = [dict(zip(FIELDS, r)) for r in records]
    payload = dicts[0] if len(dicts) == 1 else dicts
    assert json_output(records) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [None, 0.5, Fraction(1, 2), ["x"], {"x": 1}])
def test_json_output_refuses_other_input_values(value):
    """Nothing is written, not even the records before the bad one."""
    written = []
    good = ("c", None, None, {}, ())
    with pytest.raises(TypeError):
        mg.cli._write_json(written.append, [good, ("c", None, None, {"k": value}, ())])
    assert written == []


class TestBatch:
    def test_batch_runs_all_files(self, capsys, tmp_path):
        shutil.copy(GOLDEN / "segment.mg", tmp_path / "segment.mg")
        shutil.copy(GOLDEN / "chain.fib", tmp_path / "chain.fib")
        code, out, err = run(capsys, "batch", tmp_path)
        assert code == 0
        assert out.index("== chain.fib ==") < out.index("== segment.mg ==")
        assert "e = 1 (1.00000000000)" in out
        assert "e_y = 5/3 (1.66666666667)" in out

    def test_batch_continues_past_errors(self, capsys, tmp_path):
        shutil.copy(GOLDEN / "segment.mg", tmp_path / "a.mg")
        shutil.copy(GOLDEN / "zero_length.mg", tmp_path / "b.mg")
        code, out, err = run(capsys, "batch", tmp_path)
        assert code == 2
        assert "e = 1 (1.00000000000)" in out
        assert "NonpositiveLength" in out

    def test_batch_skips_other_suffixes(self, capsys, tmp_path):
        shutil.copy(GOLDEN / "segment.mg", tmp_path / "segment.mg")
        shutil.copy(GOLDEN / "segment.mg", tmp_path / "segment.txt")
        (tmp_path / "notes").write_text("not a graph\n")
        code, out, err = run(capsys, "batch", tmp_path)
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("==")] == [
            "== segment.mg =="
        ]

    def test_batch_escapes_control_characters_of_names(self, capsys, tmp_path):
        # a name holding line breaks cannot forge a header or a result: its
        # header and an error line naming it write each control character
        # escaped; --json writes the name as it is
        forged = "x\n== fake.mg ==\ne = 1 (1.00000000000)\n.mg"
        shutil.copy(GOLDEN / "segment.mg", tmp_path / "ok.mg")
        try:
            shutil.copy(GOLDEN / "zero_length.mg", tmp_path / forged)
            (tmp_path / "y\x1b\r.mg").mkdir()
        except OSError as exc:
            pytest.skip(f"the file system refuses the name: {exc}")
        code, out, err = run(capsys, "batch", tmp_path)
        assert code == 2
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("==")] == [
            "== ok.mg ==",
            "== x\\n== fake.mg ==\\ne = 1 (1.00000000000)\\n.mg ==",
            "== y\\x1b\\r.mg ==",
        ]
        assert lines.count("e = 1 (1.00000000000)") == 1
        assert f"error: UnreadableFile: {tmp_path}/y\\x1b\\r.mg: not a regular file" in lines
        code, out, err = run(capsys, "--json", "batch", tmp_path)
        files = [r["inputs"]["file"] for r in json.loads(out) if r["exact"] is None]
        assert [Path(f).name for f in files] == [forged, "y\x1b\r.mg"]

    def test_batch_not_a_directory(self, capsys):
        code, out, err = run(capsys, "batch", GOLDEN / "segment.mg")
        assert code == 2

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_batch_records_fifo_without_opening_it(self, capsys, tmp_path):
        # Opening a FIFO with no writer blocks, so it must be rejected
        # unopened.  Should it be opened, a writer after 10 s ends the wait
        # and the test fails instead of hanging.
        fifo = tmp_path / "a.mg"
        os.mkfifo(fifo)
        shutil.copy(GOLDEN / "segment.mg", tmp_path / "b.mg")
        writer = threading.Timer(10, lambda: os.close(os.open(fifo, os.O_WRONLY)))
        writer.start()
        try:
            code, out, err = run(capsys, "batch", tmp_path)
        finally:
            writer.cancel()
        assert code == 2
        assert "UnreadableFile" in out and "not a regular file" in out
        assert "e = 1 (1.00000000000)" in out

    def test_batch_records_unreadable_entries(self, capsys, tmp_path):
        shutil.copy(GOLDEN / "segment.mg", tmp_path / "a.mg")
        (tmp_path / "b.mg").write_bytes(b"\xff\xfe")
        (tmp_path / "sub.mg").mkdir()
        code, out, err = run(capsys, "batch", tmp_path)
        assert code == 2
        assert "e = 1 (1.00000000000)" in out
        assert out.count("UnreadableFile") == 2
        code, out, err = run(capsys, "--json", "batch", tmp_path)
        assert code == 2
        errors = [r for r in json.loads(out) if r["exact"] is None]
        assert [Path(r["inputs"]["file"]).name for r in errors] == ["b.mg", "sub.mg"]


@pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
def test_batch_text_writes_file_names_as_on_disk(tmp_path, encoding):
    """On a strict stdout that cannot write a file name, the header line of
    the file, and an error line naming it, carry the name's bytes as they
    are on disk, as the C locale prints them, instead of failing: a name
    that is not UTF-8, and under ASCII one that is not ASCII."""
    shutil.copy(GOLDEN / "segment.mg", tmp_path / "a.mg")
    shutil.copy(GOLDEN / "segment.mg", tmp_path / "\u00e9.mg")
    root = os.fsencode(tmp_path)
    try:
        shutil.copy(GOLDEN / "segment.mg", root + b"/d\xff.mg")
        os.mkdir(root + b"/e\xff.mg")
    except OSError as exc:
        pytest.skip(f"the file system refuses a name that is not UTF-8: {exc}")
    proc = subprocess.run(
        [sys.executable, "-m", "mg.cli", "batch", str(tmp_path)],
        env={**os.environ, "PYTHONIOENCODING": encoding,
             "PYTHONPATH": str(Path(mg.cli.__file__).parents[1])},
        capture_output=True, timeout=60,
    )
    assert proc.stderr == b""
    assert proc.returncode == 2
    headers = [line for line in proc.stdout.split(b"\n") if line.startswith(b"==")]
    assert headers == [b"== a.mg ==", b"== d\xff.mg ==", b"== e\xff.mg ==", b"== \xc3\xa9.mg =="]
    assert proc.stdout.count(b"e = 1 (1.00000000000)") == 3
    assert b"error: UnreadableFile: " + root + b"/e\xff.mg: not a regular file\n" in proc.stdout


class TestClosedStdout:
    """`mg ... | head`: a reader that goes away ends the command quietly,
    with its own exit code.  The read end is closed before the child
    starts, so its first write fails however short the output is."""

    def _run_closed(self, *argv):
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run(
                [sys.executable, "-m", "mg.cli", *map(str, argv)],
                env={**os.environ, "PYTHONPATH": str(Path(mg.cli.__file__).parents[1])},
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write)

    def test_exit_0_and_nothing_on_stderr(self):
        proc = self._run_closed("--json", "fiber", "analyze", GOLDEN / "chain.fib")
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_keeps_the_commands_exit_code(self, tmp_path):
        shutil.copy(GOLDEN / "segment.mg", tmp_path / "a.mg")
        shutil.copy(GOLDEN / "zero_length.mg", tmp_path / "b.mg")
        proc = self._run_closed("batch", tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == ""


class TestBigResults:
    """Exact results longer than the interpreter's default limit on int to
    str conversion (4300 digits) print in full, and `main` leaves that
    process-wide limit as it found it."""

    @pytest.fixture(scope="class")
    def path150(self, tmp_path_factory):
        rng = Random(150)
        lengths = [
            Fraction(rng.randint(1, 10**40), rng.randint(1, 10**40)) for _ in range(150)
        ]
        path = tmp_path_factory.mktemp("big") / "path150.mg"
        path.write_text(path_file(lengths))
        return path

    @staticmethod
    def _limit():
        return getattr(sys, "get_int_max_str_digits", lambda: None)()

    def test_text(self, capsys, path150):
        limit = self._limit()
        code, out, err = run(capsys, "e-invariant", path150)
        assert code == 0, err
        assert out.startswith("e = ") and len(out) > 4300
        assert self._limit() == limit

    def test_json_round_trips(self, capsys, path150):
        limit = self._limit()
        code, out, err = run(capsys, "--json", "e-invariant", path150)
        assert code == 0, err
        assert self._limit() == limit
        exact = json.loads(out)["exact"]
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            e = Fraction(exact)
            assert str(e) == exact
            assert len(str(e.numerator)) > 4300
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


class TestCertificate:
    """Every command that builds a Green system certifies it, and `mg
    measure` checks the measure it prints against it: a wrong 2 m_can in
    the kernel, or a wrong measure object, is a precondition failure, exit
    3."""

    @pytest.mark.parametrize(
        "argv", [["green", "P", "m"], ["measure"], ["e-invariant"]], ids=lambda a: a[0]
    )
    def test_wrong_measure_exits_3(self, capsys, monkeypatch, argv):
        def wrong(g, d, deg):
            return AdmissibleMeasure(g, {"P": Fraction(3, 4), "Q": Fraction(1, 4)}, {})

        def moved(m):  # half of 2 m_can moved from P to Q: the mass stays 2
            m[0] -= Fraction(1, 2)
            m[1] += Fraction(1, 2)

        command, *points = argv
        if command == "measure":
            monkeypatch.setattr(mg.green, "_measure", wrong)
        else:
            fault_canonical(monkeypatch, moved)
        code, out, err = run(capsys, command, GOLDEN / "segment.mg", *points)
        assert code == 3
        assert "ConstancyViolation" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [["green", "P", "m"], ["e-invariant"]], ids=lambda a: a[0])
    def test_wrong_canonical_mass_exits_3(self, capsys, monkeypatch, argv):
        def removed(m):  # half of 2 m_can removed at Q: the mass is 3/2
            m[1] -= Fraction(1, 2)

        fault_canonical(monkeypatch, removed)
        command, *points = argv
        code, out, err = run(capsys, command, GOLDEN / "segment.mg", *points)
        assert (code, out) == (3, "")
        assert err == "error: ConstancyViolation: measure has total mass 7/8, not 1\n"

    @pytest.mark.parametrize("fault", ["solve", "diagonal", "edge"])
    def test_wrong_kernel_exits_3(self, capsys, monkeypatch, fault):
        """A changed solve output, or a changed diagonal entry or entry of
        an edge of Gamma (P-Q, off the ground R, the only vertex with three
        neighbours), fails the build."""

        def raised(x):  # the last vertex's entry of x_D
            x[-1] += 1

        def raised_entry(rows, i=1, j=1 if fault == "diagonal" else 2):
            rows[i][j] = rows[j][i] = rows[i][j] + Fraction(1, 1000)

        if fault == "solve":
            fault_solve(monkeypatch, raised)
        else:
            fault_inverse(monkeypatch, raised_entry)
        code, out, err = run(capsys, "e-invariant", GOLDEN / "interior.mg")
        assert (code, out) == (3, "")
        assert err.startswith("error: ConstancyViolation: ")

    @pytest.mark.parametrize("kind", ["diagonal", "edge"])
    def test_wrong_kernel_fails_resistance(self, capsys, monkeypatch, tmp_path, kind):
        """`mg resistance` builds no Green system, so it certifies the kernel
        itself: v3's diagonal entry, or that of the edge c3 = v3-v4, of
        Gamma raised by 1/1000 is exit 3 with no output, where r across c3
        would read 553271/1271000 for the diagonal fault, not 552/1271."""
        path = tmp_path / "chords.mg"
        path.write_text(graph_file(cycle_chords()))
        code, out, _ = run(capsys, "resistance", path, "v3", "v4")
        assert code == 0 and "552/1271" in out
        index = resistance_kernel(cycle_chords()).index
        i, j = index["v3"], index["v3" if kind == "diagonal" else "v4"]

        def raised(rows):
            rows[i][j] = rows[j][i] = rows[i][j] + Fraction(1, 1000)

        fault_inverse(monkeypatch, raised)
        code, out, err = run(capsys, "resistance", path, "v3", "v4")
        assert (code, out) == (3, "")
        assert err.startswith("error: ConstancyViolation: 2 mu_can has total mass ")
