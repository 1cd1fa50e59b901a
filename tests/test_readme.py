"""The README's examples stay runnable as written."""

from pathlib import Path

from test_golden_artifacts import README_RUN

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(after: str, language: str) -> str:
    """The first fenced `language` block after the heading `after`."""
    return README.split(after)[1].split(f"```{language}\n")[1].split("```")[0]


def test_readme_config_is_the_golden_readme_run():
    """The minimal config of the README is the one whose artifacts the
    golden digests pin."""
    assert _block("## Command line\n", "ini") == README_RUN.format(out="out")


def test_readme_library_example_runs():
    """The "Library use" block runs as written and ends adiabatic."""
    scope = {}
    exec(_block("## Library use\n", "python"), scope)
    assert abs(scope["Q_final"] - 1.0) < 1e-10
