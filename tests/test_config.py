"""A failing property test fails alone under the repo's pytest settings.

`pyproject.toml` makes every warning an error.  When a `@given` test fails,
hypothesis writes its failure report through libcst, which warns that
`mypy_extensions.TypedDict` is deprecated; raised as an error there, that
warning ends the whole session as an INTERNALERROR, and no later test runs.
The settings ignore that one warning."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = textwrap.dedent(
    """
    from hypothesis import given, strategies as st


    @given(n=st.integers(0, 10))
    def test_fails(n):
        assert n < 0


    def test_passes():
        assert True
    """
)


def test_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_probe.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
