"""Regeneration harness for every table and figure in the paper.

One module per experiment (``fig2`` … ``fig12``, ``large_pages``,
``tables``); each declares the cells it needs and computes its result
from them.  :mod:`repro.experiments.report` declares every experiment's
cells on one :class:`~repro.experiments.runner.ExperimentRunner`, which
simulates each distinct cell once, then renders EXPERIMENTS.md.
"""

from . import (  # noqa: F401
    ablations,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig10,
    fig11,
    fig12,
    large_pages,
    oversubscription,
    tables,
)
from .configs import CONFIGS, get_config
from .runner import ExperimentRunner, ShapeCheck, geomean, summarize_checks

__all__ = [
    "CONFIGS",
    "ExperimentRunner",
    "ShapeCheck",
    "ablations",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig10",
    "fig11",
    "fig12",
    "geomean",
    "get_config",
    "large_pages",
    "oversubscription",
    "summarize_checks",
    "tables",
]
