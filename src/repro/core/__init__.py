"""The paper's primary contribution as a reusable library.

* :mod:`~repro.core.access_pattern` -- regular/irregular classification;
* :mod:`~repro.core.metadata` -- the array-metadata registry (rank, dims,
  pattern, access order);
* :mod:`~repro.core.optimizer` -- metadata -> per-array I/O plan;
* :mod:`~repro.core.trace` / :mod:`~repro.core.report` -- I/O tracing and
  Pablo-style analysis reports.
"""

from .access_pattern import AccessDescriptor, PatternClass, classify_accesses
from .metadata import ArrayMetadata, MetadataRegistry
from .optimizer import ArrayPlan, IOPlan, Optimizer
from .report import format_table, format_trace_report
from .trace import IOEvent, IOTrace, trace_filesystem

__all__ = [
    "AccessDescriptor",
    "PatternClass",
    "classify_accesses",
    "ArrayMetadata",
    "MetadataRegistry",
    "ArrayPlan",
    "IOPlan",
    "Optimizer",
    "IOEvent",
    "IOTrace",
    "trace_filesystem",
    "format_table",
    "format_trace_report",
]
