"""Closed-loop auto-tuning: diagnose a run, apply the remedies, re-run.

:class:`AutoTuner` runs the Enzo driver (four cycles, two dumps) with the
current strategy and hints on a traced file system, feeds the trace
through the detector rules, maps the machine-actionable recommendations
onto concrete knobs -- a strategy upgrade (``hdf4``/``hdf5`` -> the
paper's collective ``mpi-io``) or :class:`~repro.mpiio.hints.Hints`
fields -- and repeats until the diagnosis is free of HIGH findings,
nothing new is applicable, or the round budget runs out.  The :class:`TuningReport` records every step with
its bandwidth, so the before/after delta is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench.runners import run_overlap_experiment
from ..core.trace import IOTrace, trace_filesystem
from ..iostack import registry
from ..mpiio.hints import Hints
from .model import Diagnosis, Severity
from .rules import diagnose

__all__ = ["AutoTuner", "TuningReport", "TuningStep"]


def stripe_size_of(machine) -> int:
    """The attached file system's stripe size, 0 if it has none."""
    layout = getattr(machine.fs, "layout", None)
    return int(getattr(layout, "stripe_size", 0) or 0)


def stripe_headroom_of(machine) -> int:
    """Total server count when files default to a narrower stripe, else 0.

    Lustre-style file systems expose ``nosts`` (total OSTs); their
    volume-default ``layout.stripe_count`` is what a file gets without an
    explicit layout.  When it is narrower than the volume, the
    ``striping_factor`` hint can claim the rest.  Fixed-width file systems
    (GPFS, PVFS, XFS in this repo) have no ``nosts`` and no such headroom.
    """
    fs = machine.fs
    nosts = int(getattr(fs, "nosts", 0) or 0)
    current = fs.layout.stripe_count if nosts else 0
    return nosts if 0 < current < nosts else 0


def _diagnose_run(trace, machine, *, nprocs, hints, strategy) -> Diagnosis:
    """Diagnose a traced run on ``machine`` with its platform context.

    The one place that context is assembled: every tuner round and every
    regress record diagnose through here, so a rule sees the same node
    count, stripe geometry, hints and strategy name in both.
    """
    return diagnose(
        trace,
        nprocs=nprocs,
        nnodes=machine.nnodes,
        stripe_size=stripe_size_of(machine),
        stripe_widen_to=stripe_headroom_of(machine),
        hints=hints,
        strategy=strategy,
    )


@dataclass
class TuningStep:
    """One diagnose-and-run iteration."""

    round: int
    strategy: str
    hints: dict
    write_time: float
    bytes_written: int
    bandwidth: float  # bytes / simulated second
    high: int
    warn: int
    high_rules: list = field(default_factory=list)
    applied: list = field(default_factory=list)  # actions that produced this step

    def to_dict(self) -> dict:
        return {
            "round": self.round,
            "strategy": self.strategy,
            "hints": dict(self.hints),
            "write_time_s": self.write_time,
            "bytes_written": self.bytes_written,
            "bandwidth_mb_s": self.bandwidth / 2**20,
            "high": self.high,
            "warn": self.warn,
            "high_rules": list(self.high_rules),
            "applied": list(self.applied),
        }


@dataclass
class TuningReport:
    """The full tuning trajectory plus the headline delta."""

    problem: str
    nprocs: int
    machine: str
    steps: list = field(default_factory=list)

    @property
    def baseline(self) -> TuningStep:
        return self.steps[0]

    @property
    def best(self) -> TuningStep:
        return max(self.steps, key=lambda s: s.bandwidth)

    @property
    def bandwidth_delta(self) -> float:
        """Best-minus-baseline bandwidth (bytes/s); positive = improvement."""
        return self.best.bandwidth - self.baseline.bandwidth

    @property
    def speedup(self) -> float:
        b = self.baseline.bandwidth
        return self.best.bandwidth / b if b else float("inf")

    @property
    def unapplied_upgrades(self) -> list[str]:
        """Registered upgrades the tuner suggested but never ran.

        The transitive ``upgrades_to`` chain of every visited strategy,
        minus the strategies actually measured -- non-empty output means
        the report's winner is not the end of the road (e.g. the round
        budget ran out before ``mpi-io-async`` was tried).  A chain step
        the tuner jumped *past* (something further down its chain was
        measured) is not unapplied.
        """
        tried = {s.strategy for s in self.steps}
        out: list[str] = []
        for strategy in sorted(tried):
            for target in registry.upgrade_chain(strategy):
                if target in tried or target in out:
                    continue
                if tried.intersection(registry.upgrade_chain(target)):
                    continue  # the tuner went further down this chain
                out.append(target)
        return out

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "nprocs": self.nprocs,
            "machine": self.machine,
            "steps": [s.to_dict() for s in self.steps],
            "baseline_bandwidth_mb_s": self.baseline.bandwidth / 2**20,
            "tuned_bandwidth_mb_s": self.best.bandwidth / 2**20,
            "bandwidth_delta_mb_s": self.bandwidth_delta / 2**20,
            "speedup": self.speedup,
            "unapplied_upgrades": self.unapplied_upgrades,
        }

    def explain(self) -> str:
        lines = [
            f"auto-tune {self.problem} on {self.machine}, P={self.nprocs}:"
        ]
        for s in self.steps:
            applied = f"  [{'; '.join(s.applied)}]" if s.applied else ""
            lines.append(
                f"  round {s.round}: {s.strategy:7s} "
                f"{s.bandwidth / 2**20:8.1f} MB/s  "
                f"{s.high} HIGH / {s.warn} WARN{applied}"
            )
        lines.append(
            f"  => {self.speedup:.2f}x "
            f"({self.baseline.bandwidth / 2**20:.1f} -> "
            f"{self.best.bandwidth / 2**20:.1f} MB/s)"
        )
        unapplied = self.unapplied_upgrades
        if unapplied:
            lines.append(
                "  suggested but not applied: " + ", ".join(unapplied)
            )
        return "\n".join(lines)


class AutoTuner:
    """Drive the diagnose -> retune -> re-run loop for one workload."""

    def __init__(
        self,
        machine_factory,
        *,
        problem: str = "AMR32",
        nprocs: int = 8,
        strategy: str = "hdf4",
        max_rounds: int = 3,
        retry=None,
    ):
        if strategy not in registry.names():
            raise ValueError(f"unknown strategy {strategy!r}")
        self.machine_factory = machine_factory
        self.problem = problem
        self.nprocs = nprocs
        self.strategy = strategy
        self.max_rounds = max_rounds
        self.retry = retry  # resilience.RetryPolicy, threaded to strategies

    # -- one traced run ----------------------------------------------------

    def run_once(
        self, strategy: str, hints: Hints
    ) -> tuple[IOTrace, Diagnosis, object]:
        """Run the Enzo driver traced, and diagnose the trace.

        Every round measures the same workload: four cycles of the named
        problem with a dump every second cycle, so two rounds differ only
        in strategy and hints.  Two dumps are enough for write-behind to
        show and few enough files that a shared-file strategy's trace does
        not read as a file-per-grid layout.  Write-behind is on exactly
        when the composition is async; its ``write_time`` then counts only
        the time the application was blocked, the convention the
        regression matrix uses for its async cells.
        """
        from ..enzo.simulation import EnzoConfig

        machine = self.machine_factory(self.nprocs)
        stack = registry.create(strategy, hints=hints, retry=self.retry)
        config = EnzoConfig(
            problem=self.problem, ncycles=4, dump_every=2,
            overlap=bool(registry.get(strategy).options.get("async")),
        )
        with trace_filesystem(machine.fs) as trace:
            result = run_overlap_experiment(
                machine, stack, config, nprocs=self.nprocs
            )
        diagnosis = _diagnose_run(
            trace, machine, nprocs=self.nprocs, hints=hints, strategy=strategy
        )
        return trace, diagnosis, result

    # -- recommendation -> knob mapping ------------------------------------

    def apply_recommendations(
        self, diagnosis: Diagnosis, strategy: str, hints: Hints
    ) -> tuple[str, Hints, list]:
        """The (strategy, hints) the diagnosis asks for, plus a changelog."""
        applied: list[str] = []
        new_strategy = strategy
        for rec in diagnosis.recommendations():
            if rec.action == "switch_strategy":
                target = rec.params.get("to", "")
                if (
                    target != new_strategy
                    and target in registry.upgrade_chain(new_strategy)
                ):
                    new_strategy = target
                    applied.append(f"strategy -> {target}")
        new_hints = hints
        if registry.get(new_strategy).takes_hints:
            for rec in diagnosis.recommendations():
                if rec.action != "set_hint":
                    continue
                name, value = rec.params["name"], rec.params["value"]
                if getattr(new_hints, name, value) != value:
                    new_hints = new_hints.replace(**{name: value})
                    applied.append(f"{name}={value}")
        return new_strategy, new_hints, applied

    # -- the loop ----------------------------------------------------------

    def _measure(
        self, report: TuningReport, round_no: int, strategy: str,
        hints: Hints, applied: list,
    ) -> Diagnosis:
        """Run one round and append its :class:`TuningStep` to ``report``."""
        _trace, diagnosis, result = self.run_once(strategy, hints)
        bandwidth = (
            result.bytes_written / result.write_time
            if result.write_time
            else 0.0
        )
        report.steps.append(
            TuningStep(
                round=round_no,
                strategy=strategy,
                hints=hints.to_info(),
                write_time=result.write_time,
                bytes_written=result.bytes_written,
                bandwidth=bandwidth,
                high=diagnosis.count(Severity.HIGH),
                warn=diagnosis.count(Severity.WARN),
                high_rules=[
                    i.rule for i in diagnosis.findings(Severity.HIGH)
                ],
                applied=applied,
            )
        )
        return diagnosis

    def tune(self) -> TuningReport:
        machine_name = self.machine_factory(self.nprocs).name
        report = TuningReport(
            # str() so a Scenario-valued problem reports its name (and the
            # JSON export stays serializable).
            problem=str(self.problem), nprocs=self.nprocs,
            machine=machine_name,
        )
        strategy, hints = self.strategy, Hints()
        applied: list[str] = []
        for round_no in range(self.max_rounds + 1):
            diagnosis = self._measure(report, round_no, strategy, hints, applied)
            if diagnosis.count(Severity.HIGH) == 0 and round_no > 0:
                break
            strategy, hints, applied = self.apply_recommendations(
                diagnosis, strategy, hints
            )
            if not applied:
                break
        self._explore_variants(report, hints)
        return report

    def _explore_variants(self, report: TuningReport, hints: Hints) -> None:
        """Try registered variants of strategies the loop already ran.

        Compositions declaring ``variant_of`` (e.g. ``hdf5-aligned``, the
        paper's Section 5 remedy of metadata aggregation plus alignment
        padding) are candidates whenever their base strategy was visited:
        they encode a tuning option the rule engine cannot reach through
        hint edits alone, so the tuner measures them explicitly and lets
        :attr:`TuningReport.best` pick the winner.
        """
        tried = {s.strategy for s in report.steps}
        round_no = report.steps[-1].round if report.steps else 0
        fs = self.machine_factory(self.nprocs).fs
        for comp in registry.compositions():
            if comp.variant_of is None or comp.variant_of not in tried:
                continue
            if comp.name in tried:
                continue
            try:
                registry.check_filesystem(comp.name, fs)
            except ValueError:
                continue  # e.g. scda on a scatter-mode node-local fs
            round_no += 1
            self._measure(
                report, round_no, comp.name, hints,
                [f"try variant {comp.name} (of {comp.variant_of})"],
            )
