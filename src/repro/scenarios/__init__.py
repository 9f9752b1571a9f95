"""Scenario ingestion: parameter-file-driven workload descriptions.

The paper's experiments all exercise one hard-coded checkpoint/restart
workload shape.  This package turns workload shape into data: Enzo-style
and Nyx-style parameter files normalize into one canonical
:class:`Scenario`, a declarative registry names every built-in workload
(the five ``AMR*`` paper sizes plus the gated ``foggie-nested`` /
``nyx-plotfile`` / ``flashx-particles`` scenarios), and
:func:`build_hierarchy` is the single funnel from scenario to AMR
hierarchy.
"""

from __future__ import annotations

from . import registry
from .build import build_hierarchy
from .enzo_dialect import emit_enzo, normalize_enzo, parse_enzo
from .ingest import load_param_file, parse_param_text, sniff_dialect
from .model import (
    MIN_GRID_SIZE,
    MustRefineRegion,
    NestedGridSpec,
    Scenario,
    ScenarioError,
)
from .nyx_dialect import emit_nyx, normalize_nyx, parse_nyx

__all__ = [
    "MIN_GRID_SIZE",
    "MustRefineRegion",
    "NestedGridSpec",
    "Scenario",
    "ScenarioError",
    "build_hierarchy",
    "emit_enzo",
    "emit_nyx",
    "load_param_file",
    "normalize_enzo",
    "normalize_nyx",
    "parse_enzo",
    "parse_nyx",
    "parse_param_text",
    "registry",
    "resolve_scenario",
    "sniff_dialect",
]


def resolve_scenario(problem: str | Scenario) -> Scenario:
    """A :class:`Scenario` from a registry name or a scenario object.

    Unknown names raise :class:`ScenarioError` with the registry's
    "choose from ..." message.
    """
    if isinstance(problem, Scenario):
        return problem
    return registry.get(str(problem))
