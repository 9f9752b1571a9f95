"""Rule registry, thresholds, and the :func:`diagnose` entry point.

A detector rule is a function ``rule(ctx: TraceContext) -> list[Insight]``
registered with the :func:`rule` decorator.  :func:`diagnose` runs every
registered rule over a :class:`TraceContext` and returns the sorted
:class:`~repro.insights.model.Diagnosis`.

Thresholds follow Drishti's shape (fractions of requests / bytes that turn
a pattern into a finding); the values are calibrated against this repo's
simulated platforms so the paper's Figure-6 contrast (sequential HDF4 vs.
tuned collective MPI-IO) reproduces as HIGH-vs-clean.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.trace import IOTrace
from .model import Diagnosis, Insight

__all__ = ["TraceContext", "Thresholds", "rule", "all_rules", "diagnose"]


@dataclass(frozen=True)
class Thresholds:
    """Detection thresholds (Drishti-style); every detector reads
    :data:`THRESHOLDS`."""

    #: a request below this many bytes is "small"
    small_request_bytes: int = 128 * 1024
    #: a request below this many bytes is "metadata-sized" (tiny)
    tiny_request_bytes: int = 1024
    #: small-request finding: fraction of requests that are small
    small_count_fraction: float = 0.70
    #: ... escalates to HIGH when small requests also carry this byte share
    small_byte_fraction: float = 0.25
    #: tiny/data interleaving: tiny-request fraction and alternation rate
    tiny_count_fraction: float = 0.40
    interleave_fraction: float = 0.50
    #: random-access finding: per-node sequential fraction below this
    sequential_fraction: float = 0.30
    #: misalignment finding: aligned-offset fraction below this
    aligned_fraction: float = 0.25
    #: shared-file finding: small-byte share of a multi-writer file
    shared_small_byte_fraction: float = 0.25
    #: file-count findings (N-N style output)
    many_files_warn: int = 4
    #: node-balance findings
    single_writer_share: float = 0.50
    imbalance_skew: float = 2.5
    #: metadata findings
    metadata_ratio_warn: float = 0.10
    metadata_ratio_high: float = 0.50
    opens_per_file_warn: float = 4.0
    opens_per_file_high: float = 16.0
    min_opens: int = 16
    #: read-modify-write amplification (reads observed during a write phase)
    rmw_ratio_warn: float = 0.15
    rmw_ratio_high: float = 0.50
    #: resilience findings: retries per data request
    retry_ratio_warn: float = 0.05
    retry_ratio_high: float = 0.25
    #: ... and degraded collective-to-independent fallbacks per run
    degraded_high: int = 4
    #: sync-checkpoint-stall: writer busy fraction of the dump span above
    #: which a synchronous strategy is worth moving to write-behind
    sync_stall_fraction: float = 0.15


THRESHOLDS = Thresholds()


@dataclass
class TraceContext:
    """Everything a detector may consult.

    Only ``trace`` is required; the optional platform/strategy context
    sharpens findings (e.g. the alignment rule goes quiet when the hints
    already pin collective domains to the stripe).
    """

    trace: IOTrace
    nprocs: int = 0
    nnodes: int = 0
    stripe_size: int = 0
    #: total server (OST) count when the file system stripes each file over
    #: fewer servers than it has -- i.e. there is stripe-width headroom the
    #: ``striping_factor`` hint can claim; 0 on fixed-width file systems.
    stripe_widen_to: int = 0
    hints: object | None = None  # mpiio.Hints
    strategy: str | None = None

    # -- shared derived helpers (used by several detectors) -----------------

    def data_ops(self) -> list[str]:
        """The data op streams present in the trace, write first."""
        return [op for op in ("write", "read") if self.trace.ops(op)]

    def small_fractions(self, op: str) -> tuple[float, float]:
        """(count fraction, byte fraction) of small requests for ``op``."""
        sizes = self.trace.request_sizes(op)
        if not len(sizes):
            return 0.0, 0.0
        small = sizes < THRESHOLDS.small_request_bytes
        total = int(sizes.sum())
        return (
            float(small.sum()) / len(sizes),
            (int(sizes[small].sum()) / total) if total else 0.0,
        )

    def events_by_node(self, op: str) -> dict[int, list]:
        out: dict[int, list] = {}
        for e in self.trace.ops(op):
            out.setdefault(e.node, []).append(e)
        return out

    def events_by_path(self, op: str) -> dict[str, list]:
        out: dict[str, list] = {}
        for e in self.trace.ops(op):
            out.setdefault(e.path, []).append(e)
        return out

    def per_node_sequential(self, op: str) -> list[float]:
        """Sequential fraction of each node's own request stream."""
        fractions = []
        for events in self.events_by_node(op).values():
            last: dict[str, int] = {}
            sequential = 0
            for e in events:
                if last.get(e.path) == e.offset:
                    sequential += 1
                last[e.path] = e.offset + e.nbytes
            fractions.append(sequential / len(events))
        return fractions


_RULES: dict[str, callable] = {}


def rule(rule_id: str):
    """Register a detector under ``rule_id`` (used in reports and tests)."""

    def register(fn):
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _RULES[rule_id] = fn
        fn.rule_id = rule_id
        return fn

    return register


def all_rules() -> dict[str, callable]:
    """The registered detectors (import-time side effect of detectors/)."""
    from . import detectors  # noqa: F401  -- registers on first import

    return dict(_RULES)


def diagnose(
    trace: IOTrace,
    *,
    nprocs: int = 0,
    nnodes: int = 0,
    stripe_size: int = 0,
    stripe_widen_to: int = 0,
    hints=None,
    strategy: str | None = None,
) -> Diagnosis:
    """Run the detector rules over ``trace`` and return the diagnosis."""
    ctx = TraceContext(
        trace=trace,
        nprocs=nprocs,
        nnodes=nnodes or nprocs,
        stripe_size=stripe_size,
        stripe_widen_to=stripe_widen_to,
        hints=hints,
        strategy=strategy,
    )
    diagnosis = Diagnosis()
    for fn in all_rules().values():
        for insight in fn(ctx):
            diagnosis.add(insight)
    diagnosis.sort()
    diagnosis.summary = {
        "events": len(trace),
        "writes": len(trace.ops("write")),
        "reads": len(trace.ops("read")),
        "meta_ops": len(trace.ops("meta")),
        "files": len(trace.paths()),
        "nprocs": nprocs,
        "strategy": strategy or "",
        "suggested_upgrades": _suggested_upgrades(strategy),
    }
    return diagnosis


def _suggested_upgrades(strategy: str | None) -> list[str]:
    """The strategy's transitive upgrade chain, [] when unregistered."""
    if not strategy:
        return []
    from ..iostack import registry

    return list(registry.upgrade_chain(strategy))
