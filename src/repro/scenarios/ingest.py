"""Load a scenario from a parameter file on disk, sniffing the dialect.

Dialect detection is structural, not extension-based: Nyx/AMReX inputs
are recognizable by their dotted namespaces (``amr.*``, ``nyx.*``,
``geometry.*``); anything else is treated as the Enzo dialect, whose
required ``TopGridDimensions`` key will reject non-parameter files with a
clear message.  All failures raise :class:`ScenarioError` so the CLI can
map "bad parameter file" uniformly to exit 2.
"""

from __future__ import annotations

import re
from pathlib import Path

from .enzo_dialect import normalize_enzo, parse_enzo
from .model import Scenario, ScenarioError
from .nyx_dialect import normalize_nyx, parse_nyx

__all__ = ["load_param_file", "parse_param_text", "sniff_dialect"]

_NYX_KEY = re.compile(r"^\s*(amr|nyx|geometry|gravity|insitu|fabarray|mg)\.")


def sniff_dialect(text: str) -> str:
    """Return ``"nyx"`` or ``"enzo"`` for a parameter-file body."""
    for line in text.splitlines():
        if _NYX_KEY.match(line):
            return "nyx"
    return "enzo"


def parse_param_text(text: str, *, name: str,
                     description: str = "") -> Scenario:
    """Parse + normalize parameter text in whichever dialect it is."""
    if sniff_dialect(text) == "nyx":
        return normalize_nyx(parse_nyx(text), name=name,
                             description=description)
    return normalize_enzo(parse_enzo(text), name=name,
                          description=description)


def load_param_file(path: str | Path) -> Scenario:
    """Load, parse, and normalize one parameter file (named after its stem)."""
    p = Path(path)
    if p.is_dir():
        raise ScenarioError(f"parameter file {p} is a directory")
    if not p.exists():
        raise ScenarioError(f"parameter file {p} not found")
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read parameter file {p}: {exc}") from exc
    scenario = parse_param_text(text, name=p.stem,
                                description=f"loaded from {p.name}")
    return scenario
