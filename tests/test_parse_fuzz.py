"""The file parsers and the computations behind them on arbitrary text and on
mutated golden files: each run must return a result or raise `InputError` or
`PreconditionError`, never any other exception."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mg import e_invariant, fiber_report
from mg.errors import InputError, PreconditionError
from mg.fileformat import FIBER_HEADER, GRAPH_HEADER, parse_fiber_file, parse_graph_file

GOLDEN = Path(__file__).parent / "golden"

GRAPHS = [p.read_text() for p in sorted(GOLDEN.glob("*.mg"))]
FIBERS = [p.read_text() for p in sorted(GOLDEN.glob("*.fib"))]
TOKENS = sorted(
    {token for text in GRAPHS + FIBERS for token in text.split()} | {"0", "-1", "1/0", "#"}
)


@st.composite
def mutated(draw, texts):
    """One of `texts` with a few lines of `texts` inserted, lines deleted,
    tokens swapped for a token of any golden file, or tokens dropped."""
    pool = sorted({line for text in texts for line in text.splitlines()})
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "swap", "drop"]))
        if op == "insert":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(pool)))
        elif not lines:
            continue
        elif op == "delete":
            del lines[draw(st.integers(0, len(lines) - 1))]
        else:
            k = draw(st.integers(0, len(lines) - 1))
            tokens = lines[k].split()
            if tokens:
                i = draw(st.integers(0, len(tokens) - 1))
                tokens[i] = draw(st.sampled_from(TOKENS)) if op == "swap" else ""
                lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def texts(header, goldens):
    # arbitrary text, arbitrary text behind a valid header, a mutated golden
    return st.one_of(
        st.text(),
        st.text().map(lambda t: f"{header}\n{t}"),
        mutated(goldens),
    )


HANDLED = (InputError, PreconditionError)


@settings(max_examples=100, deadline=None)
@given(text=texts(GRAPH_HEADER, GRAPHS))
def test_graph_file_to_e_invariant(text):
    try:
        graph, _, divisor = parse_graph_file(text)
        e_invariant(graph, divisor)
    except HANDLED:
        pass


@settings(max_examples=100, deadline=None)
@given(text=texts(FIBER_HEADER, FIBERS))
def test_fiber_file_to_report(text):
    try:
        fiber_report(parse_fiber_file(text))
    except HANDLED:
        pass
