"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables/figures (or a shape
experiment from DESIGN.md §4), prints the report, and persists it under
``benchmarks/reports/`` so EXPERIMENTS.md can quote the exact output.  A
report holds no host-clock value (a test that times something prints the
time and commits only what it asserts), so regenerating the reports at an
unchanged tree rewrites no byte.
"""

from __future__ import annotations

import pathlib

import pytest

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def report_writer():
    """Write (and echo) a named experiment report."""
    REPORTS_DIR.mkdir(exist_ok=True)

    def write(name: str, title: str, body: str) -> None:
        text = f"{title}\n{'=' * len(title)}\n{body}\n"
        (REPORTS_DIR / f"{name}.txt").write_text(text)
        print(f"\n{text}")

    return write
