"""`mg` on random argv over the golden files: every run must end in exit code
0, 2 or 3, never in an exception that escapes `main` as a traceback."""

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from gen import path_file
from mg.cli import main
from mg.errors import InputError
from mg.fileformat import parse_graph_file

GOLDEN = Path(__file__).parent / "golden"

FILES = [str(p) for p in sorted(GOLDEN.iterdir())] + [str(GOLDEN / "nope.mg"), str(GOLDEN)]
NAMES = ["P", "Q", "O", "x", "m", "u", "n", "a", "zz", ""]
GRID = ["1", "1/2", "0", "-1", "1/0", "x", "1/100000000000000000000"]
GENUS = ["2", "3", "5", "0", "-1", "10001", "100000000000000000000000", "x"]
DELTA = ["", "0,1", "1,1", "1,2,3", "-1,0", "1/0,1", "a", ","]
RATIONAL = ["1", "1/2", "-3", "1/0", "1.5", "x"]


def _labels(path):
    try:
        return sorted(parse_graph_file(Path(path).read_text())[1])
    except (InputError, OSError):
        return []


# point names of each graph file that parses, so that half the draws name
# points that exist and reach the solvers
LABELS = {f: _labels(f) for f in FILES if f.endswith(".mg")}
GRAPHS = sorted(f for f, labels in LABELS.items() if labels)

files = st.one_of(st.sampled_from(GRAPHS), st.sampled_from(FILES))
names = st.sampled_from(NAMES)


@st.composite
def point_argv(draw, command):
    path = draw(files)
    labels = st.one_of(st.sampled_from(LABELS.get(path) or NAMES), names)
    return [*command, path, draw(labels), draw(labels)]


@st.composite
def bounds_argv(draw):
    argv = ["bounds", draw(st.sampled_from(["slope", "radius", "reference"]))]
    argv += ["--genus", draw(st.sampled_from(GENUS))]
    if draw(st.booleans()):
        argv += ["--lambda", draw(st.sampled_from(RATIONAL))]
    if draw(st.booleans()):
        argv.append("--delta=" + draw(st.sampled_from(DELTA)))
    for flag in ("--hyperelliptic", "--smooth", "--irreducible"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


commands = st.one_of(
    point_argv(["resistance"]),
    point_argv(["green"]),
    st.tuples(st.sampled_from(["measure", "e-invariant", "batch"]), files).map(list),
    files.map(lambda f: ["fiber", "analyze", f]),
    st.tuples(point_argv(["oracle", "green"]), st.sampled_from(GRID)).map(
        lambda t: [*t[0], "--h", t[1]]
    ),
    bounds_argv(),
    # token soup, for the argument parser itself
    st.lists(
        st.sampled_from(
            ["e-invariant", "oracle", "green", "fiber", "bounds", "--h", "--genus", "-h"]
            + FILES[:3] + NAMES[:3] + GRID[:3]
        ),
        max_size=7,
    ),
)


@settings(max_examples=200, deadline=None)
@given(argv=commands, json=st.booleans())
def test_exit_code_is_0_2_or_3(argv, json):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["--json", *argv] if json else argv)
        except SystemExit as exc:  # argparse rejecting argv, or --help
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@st.composite
def big_paths(draw):
    """The lengths of a 50-150 edge path, p/q with 40-digit p and q.  They
    come from a drawn seed, so that even the simplest draw is irregular and
    the result runs to thousands of digits, which only the output
    formatting sees."""
    rng = Random(draw(st.integers(0, 2**32)))
    digits = (10**39, 10**40 - 1)
    return [
        Fraction(rng.randint(*digits), rng.randint(*digits))
        for _ in range(draw(st.integers(50, 150)))
    ]


@settings(max_examples=3, deadline=None)
@given(lengths=big_paths(), json=st.booleans())
def test_big_path_exits_0(lengths, json):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "path.mg"
        path.write_text(path_file(lengths))
        argv = ["e-invariant", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--json", *argv] if json else argv)
    assert code == 0, err.getvalue()
