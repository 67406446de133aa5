"""Fixture-package builder shared by the veil-lint tests.

Each test writes a miniature package (with ``hw``/``kernel``/... style
subpackages) to ``tmp_path`` and runs the analyzer over it, so rules are
exercised against known-good and known-bad trees rather than only the
live ``repro`` sources.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import Analyzer, run_analysis


@pytest.fixture(scope="session")
def live_report():
    """One veil-lint report over the shipped tree, shared by every test
    that only inspects it (the whole-tree pass is the slow part)."""
    return run_analysis()


@pytest.fixture
def make_pkg(tmp_path):
    """Return a builder: ``make_pkg({"hw/rmp.py": "..."}) -> root``."""

    def build(files: dict[str, str]) -> Path:
        root = tmp_path / "fixturepkg"
        root.mkdir(exist_ok=True)
        (root / "__init__.py").write_text("")
        for rel, source in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            for parent in path.relative_to(root).parents:
                if str(parent) != ".":
                    init = root / parent / "__init__.py"
                    if not init.exists():
                        init.write_text("")
            path.write_text(textwrap.dedent(source))
        return root

    return build


@pytest.fixture
def analyze(make_pkg):
    """Build a fixture package and return its analysis report."""

    def run(files: dict[str, str], rules=None):
        return Analyzer(make_pkg(files), rules=rules).run()

    return run


def findings_for(report, rule: str):
    """Active (unsuppressed) findings of ``rule`` in ``report``."""
    return [f for f in report.findings
            if f.rule == rule and not f.suppressed]
