"""Executable documentation: the tutorial's code blocks must actually run.

Extracts every ```python fenced block from docs/tutorial.md and executes
them in order in one shared namespace, asserting that the printed claims
(True/False annotations in the comments) are honoured where they are easy
to check programmatically. The ``>>>`` examples in the package's
docstrings run too.
"""

import doctest
import importlib
import io
import pkgutil
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import repro

TUTORIAL = Path(__file__).parent.parent / "docs" / "tutorial.md"
README = Path(__file__).parent.parent / "README.md"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_blocks(path: Path) -> list[str]:
    return _FENCE.findall(path.read_text(encoding="utf-8"))


class TestTutorial:
    def test_blocks_exist(self):
        assert len(python_blocks(TUTORIAL)) >= 8

    def test_blocks_execute_in_order(self):
        namespace: dict = {}
        buffer = io.StringIO()
        for i, block in enumerate(python_blocks(TUTORIAL)):
            with redirect_stdout(buffer):
                exec(compile(block, f"<tutorial block {i}>", "exec"), namespace)
        output = buffer.getvalue()
        # Spot-check the tutorial's narrated outcomes.
        assert "True" in output     # consistency + property holds
        assert "False" in output    # the inconsistent policy / failed property

    def test_tutorial_state_is_sensible(self):
        namespace: dict = {}
        with redirect_stdout(io.StringIO()):
            for i, block in enumerate(python_blocks(TUTORIAL)):
                exec(compile(block, f"<tutorial block {i}>", "exec"), namespace)
        compiled = namespace["compiled"]
        assert compiled.consistent
        report = namespace["report"]
        assert report.completed
        assert report.database.query("ledger") == [(42, 10_000)]


class TestReadme:
    def test_readme_quickstart_runs(self):
        blocks = python_blocks(README)
        assert blocks, "README must contain python examples"
        namespace: dict = {}
        with redirect_stdout(io.StringIO()):
            for i, block in enumerate(blocks):
                exec(compile(block, f"<readme block {i}>", "exec"), namespace)

    def test_readme_mentions_the_deliverables(self):
        text = README.read_text(encoding="utf-8")
        for anchor in ("DESIGN.md", "EXPERIMENTS.md", "examples/", "benchmarks/"):
            assert anchor in text


class TestDocstringExamples:
    def test_every_module_example_runs(self):
        finder = doctest.DocTestFinder()
        runner = doctest.DocTestRunner()
        report = io.StringIO()
        examples = 0
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name == "repro.__main__":  # runs the CLI on import
                continue
            for test in finder.find(importlib.import_module(info.name)):
                examples += len(test.examples)
                runner.run(test, out=report.write)
        assert examples > 0
        assert runner.failures == 0, report.getvalue()
