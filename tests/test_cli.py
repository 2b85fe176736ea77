import json
import os
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
from gen import path_file
from mg import AdmissibleMeasure, MAX_GENUS
from mg.cli import build_parser, decimal12, main

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


@pytest.mark.parametrize("argv,expected", GOLDEN_CASES, ids=lambda x: str(x)[:40])
def test_golden_outputs(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == (GOLDEN / expected).read_text()


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
    """Every command that builds a Green system certifies its measure: a
    wrong admissible measure is a precondition failure, exit 3."""

    @pytest.mark.parametrize(
        "argv", [["green", "P", "m"], ["measure"], ["e-invariant"]], ids=lambda a: a[0]
    )
    def test_wrong_measure_exits_3(self, capsys, monkeypatch, argv):
        def wrong(g, d, deg):
            return AdmissibleMeasure(g, {"P": Fraction(3, 4), "Q": Fraction(1, 4)}, {})

        monkeypatch.setattr(mg.green, "_measure", wrong)
        command, *points = argv
        code, out, err = run(capsys, command, GOLDEN / "segment.mg", *points)
        assert code == 3
        assert "ConstancyViolation" in err
        assert out == ""
