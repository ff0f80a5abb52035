"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's artefacts (see PAPER.md)
at the scale selected by ``$REPRO_SCALE`` (quick / bench / paper; default
quick) and prints the regenerated table/figure so the run doubles as the
reproduction record.  pytest-benchmark times the regeneration.

Results are cached per (experiment, scale) within a session so a bench
that both times and asserts does not run the experiment twice.
"""

from __future__ import annotations

import pytest

from repro.experiments.presets import get_scale
from repro.utils.logging import enable_console_logging


def pytest_configure(config):
    enable_console_logging()


@pytest.fixture(scope="session")
def scale():
    """The active experiment scale."""
    return get_scale()


@pytest.fixture(scope="session")
def experiment_cache():
    """Session-wide memo: experiment id → result object."""
    return {}
