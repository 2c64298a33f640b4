"""Shared configuration for the ``bench_micro`` micro-benchmarks.

Command-line knobs:

* ``--density sparse|dense|both`` (default ``both``) — restrict the
  density-marked micro-benchmarks (``bench_micro``) to one candidate
  regime; unmarked benchmarks always run.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--density",
        choices=("sparse", "dense", "both"),
        default="both",
        help="run only the density-marked benchmarks of this regime",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "density(regime): benchmark exercises one candidate-bag regime "
        "('sparse' or 'dense'); filtered by --density",
    )


def pytest_collection_modifyitems(config, items):
    wanted = config.getoption("--density")
    if wanted == "both":
        return
    skip = pytest.mark.skip(reason=f"--density {wanted} deselects this regime")
    for item in items:
        marker = item.get_closest_marker("density")
        if marker is not None and marker.args and marker.args[0] != wanted:
            item.add_marker(skip)
