"""Shared benchmark fixtures and result output helpers."""

import os
import pathlib
import platform

import pytest

from repro.sim import atomic_write_text

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory where benches drop their CSV/ASCII artifacts."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(name: str, text: str) -> None:
    """Write a rendered result file and echo it to stdout.

    Atomic (tmp file + ``os.replace``): an interrupted benchmark run
    never leaves a truncated artifact for tooling to trip over.
    """
    atomic_write_text(RESULTS_DIR / name, text)
    print(f"\n===== {name} =====")
    print(text)


def bench_provenance() -> dict:
    """The host/toolchain block stamped into a bench report.

    Throughput numbers are only interpretable against the host that
    produced them — ``cpu_count`` decides whether the scaling sections
    measured anything real, and interpreter/library versions move the
    absolute numbers between PRs.
    """
    import numpy

    from repro import __version__

    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "package_version": __version__,
    }
