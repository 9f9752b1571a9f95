"""Severity-colored text and JSON reporters for a Diagnosis.

The text layout follows Drishti: a header with severity totals, then one
block per finding, most severe first, with its recommendations indented
beneath.  Colors are ANSI and strictly optional (``color=False`` gives the
stable plain-text form the golden tests pin).
"""

from __future__ import annotations

import json
import sys

from .model import Diagnosis, Severity

__all__ = ["format_report", "report_to_json"]

_COLORS = {
    Severity.HIGH: "\x1b[1;31m",  # bold red
    Severity.WARN: "\x1b[33m",  # yellow
    Severity.INFO: "\x1b[36m",  # cyan
    Severity.OK: "\x1b[32m",  # green
}
_RESET = "\x1b[0m"
_DIM = "\x1b[2m"


def _paint(text: str, code: str, enabled: bool) -> str:
    return f"{code}{text}{_RESET}" if enabled else text


def format_report(
    diagnosis: Diagnosis,
    *,
    title: str = "repro.insights -- I/O diagnosis",
    color: bool | None = None,
    show_ok: bool = True,
) -> str:
    """Render ``diagnosis`` as the Drishti-style text report."""
    if color is None:
        color = sys.stdout.isatty()
    lines = [title, "=" * len(title)]

    s = diagnosis.summary
    if s:
        bits = [f"{s.get('events', 0)} events"]
        if s.get("writes"):
            bits.append(f"{s['writes']} writes")
        if s.get("reads"):
            bits.append(f"{s['reads']} reads")
        if s.get("meta_ops"):
            bits.append(f"{s['meta_ops']} meta ops")
        if s.get("files"):
            bits.append(f"{s['files']} files")
        if s.get("nprocs"):
            bits.append(f"P={s['nprocs']}")
        if s.get("strategy"):
            bits.append(f"strategy={s['strategy']}")
        lines.append(_paint("  ".join(bits), _DIM, color))

    counts = "  ".join(
        _paint(f"{diagnosis.count(sev)} {sev.name}", _COLORS[sev], color)
        for sev in (Severity.HIGH, Severity.WARN, Severity.OK)
    )
    lines.append(counts)
    lines.append("")

    shown = [
        i
        for i in diagnosis.insights
        if show_ok or i.severity is not Severity.OK
    ]
    if not shown:
        lines.append("no findings")
    for insight in shown:
        tag = _paint(f"[{insight.severity.name}]", _COLORS[insight.severity], color)
        op = f" ({insight.op})" if insight.op else ""
        lines.append(f"{tag} {insight.rule}{op}: {insight.title}")
        if insight.severity is not Severity.OK:
            lines.append(f"       {insight.detail}")
            for rec in insight.recommendations:
                lines.append(_paint(f"       -> {rec.text}", _DIM, color))
    return "\n".join(lines)


def report_to_json(diagnosis: Diagnosis) -> str:
    return json.dumps(diagnosis.to_dict(), indent=2)
