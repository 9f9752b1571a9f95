"""Data model for I/O diagnosis findings (Drishti-style).

An :class:`Insight` is one finding produced by a detector rule: a severity,
the human-readable statement, the numbers that triggered it (``evidence``),
and zero or more machine-actionable :class:`Recommendation` objects the
:mod:`~repro.insights.autotune` loop can apply.  A :class:`Diagnosis`
collects the findings of one trace analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Severity", "Recommendation", "Insight", "Diagnosis"]


class Severity(enum.IntEnum):
    """Ordered severity levels; lower value = more severe (sorts first)."""

    HIGH = 0
    WARN = 1
    INFO = 2
    OK = 3


#: machine-actionable recommendation kinds understood by the auto-tuner
ACTION_SET_HINT = "set_hint"
ACTION_SWITCH_STRATEGY = "switch_strategy"
ACTION_ADVISE = "advise"  # human-only advice, nothing to apply


@dataclass(frozen=True)
class Recommendation:
    """One suggested remedy.

    ``action`` is a small closed vocabulary the auto-tuner dispatches on:

    * ``"set_hint"``      -- ``params = {"name": <Hints field>, "value": v}``;
    * ``"switch_strategy"`` -- ``params = {"to": <strategy name>}``;
    * ``"advise"``        -- free-form advice, ``params`` optional.
    """

    action: str
    text: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"action": self.action, "text": self.text, "params": dict(self.params)}


@dataclass(frozen=True)
class Insight:
    """One finding of one detector rule."""

    rule: str
    severity: Severity
    title: str
    detail: str
    #: which op stream the finding is about ("write" | "read" | "" for global)
    op: str = ""
    evidence: dict = field(default_factory=dict)
    recommendations: tuple = ()

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.name,
            "title": self.title,
            "detail": self.detail,
            "op": self.op,
            "evidence": dict(self.evidence),
            "recommendations": [r.to_dict() for r in self.recommendations],
        }


@dataclass
class Diagnosis:
    """All findings for one analyzed trace, sorted most-severe-first."""

    insights: list = field(default_factory=list)
    #: trace-level summary the reporter prints in its header
    summary: dict = field(default_factory=dict)

    def add(self, insight: Insight) -> None:
        self.insights.append(insight)

    def sort(self) -> None:
        self.insights.sort(key=lambda i: (i.severity, i.rule, i.op))

    def count(self, severity: Severity) -> int:
        return sum(1 for i in self.insights if i.severity is severity)

    def findings(self, severity: Severity) -> list:
        """Insights at ``severity``."""
        return [i for i in self.insights if i.severity is severity]

    def recommendations(self) -> list:
        """Actionable recommendations from HIGH and WARN findings."""
        out = []
        for i in self.insights:
            if i.severity <= Severity.WARN:
                out.extend(i.recommendations)
        return out

    def to_dict(self) -> dict:
        return {
            "summary": dict(self.summary),
            "counts": {s.name: self.count(s) for s in Severity},
            "insights": [i.to_dict() for i in self.insights],
        }

    def __iter__(self):
        return iter(self.insights)

    def __len__(self) -> int:
        return len(self.insights)
