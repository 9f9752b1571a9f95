"""The metadata-driven I/O strategy optimizer.

This is the paper's contribution distilled into a reusable decision
procedure: given the registered array metadata (rank, dims, pattern class,
access order), emit a per-array plan --

* regular n-D block partitions  -> collective two-phase I/O with subarray
  file views;
* irregular (position-keyed) 1-D arrays -> parallel sort by key +
  independent block-wise writes; block-wise reads + redistribution;
* per-rank contiguous arrays -> plain independent contiguous I/O (the
  block-wise pattern "always results in contiguous access", so collective
  buffering would only add overhead);

plus the file-level advice of Section 3.2.2: put all grids in one shared
file (better restart reads and contiguous tape migration), and align
collective file domains to the file-system stripe when one is known.

:class:`IOPlan.explain` produces the human-readable rationale.  The MDMS
of ref [7] (the paper's stated future work: this optimizer fed from
observed runs) is not modelled here; the trace -> suggested-hints loop it
describes is :class:`repro.insights.AutoTuner` (``repro tune``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .access_pattern import PatternClass
from .metadata import ArrayMetadata, MetadataRegistry

__all__ = ["ArrayPlan", "IOPlan", "Optimizer"]


@dataclass(frozen=True)
class ArrayPlan:
    """The chosen treatment for one array."""

    array: ArrayMetadata
    method: str  # "collective_subarray" | "sort_blockwise" | "independent_contiguous"
    collective: bool
    rationale: str


@dataclass
class IOPlan:
    """A complete plan: per-array methods plus file-level advice."""

    arrays: list = field(default_factory=list)
    shared_file: bool = True
    align_to_stripe: int | None = None
    notes: list = field(default_factory=list)

    def plan_for(self, name: str) -> ArrayPlan:
        for p in self.arrays:
            if p.array.name == name:
                return p
        raise KeyError(name)

    def recommended_hints(self):
        """MPI-IO hints that realise this plan's file-level advice.

        Stripe alignment (when a stripe is known) plus write-behind
        buffering for the independent contiguous streams the plan keeps
        out of collective I/O.  The insights auto-tuner arrives at the
        same knobs from the trace side; this is the metadata side.
        """
        from ..mpiio.hints import Hints

        hints = Hints()
        if self.align_to_stripe:
            hints = hints.replace(
                cb_align=self.align_to_stripe,
                striping_unit=self.align_to_stripe,
            )
        if any(not a.collective for a in self.arrays):
            hints = hints.replace(wb_buffer_size=4 * 1024 * 1024)
        return hints

    def explain(self) -> str:
        lines = ["I/O plan:"]
        for p in self.arrays:
            mode = "collective" if p.collective else "independent"
            lines.append(
                f"  {p.array.name} (rank {p.array.rank}, {p.array.pattern.value}): "
                f"{p.method} [{mode}] -- {p.rationale}"
            )
        lines.append(
            "  file: single shared file"
            if self.shared_file
            else "  file: one file per grid"
        )
        if self.align_to_stripe:
            lines.append(
                f"  align collective file domains to {self.align_to_stripe} B stripes"
            )
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


class Optimizer:
    """Derives an :class:`IOPlan` from registered metadata."""

    def __init__(self, stripe_size: int | None = None):
        self.stripe_size = stripe_size

    def plan(self, registry: MetadataRegistry) -> IOPlan:
        plan = IOPlan(align_to_stripe=self.stripe_size)
        for md in registry.arrays():
            plan.arrays.append(self._plan_array(md))
        if any(a.method == "collective_subarray" for a in plan.arrays):
            plan.notes.append(
                "two-phase collective I/O merges the (Block,...,Block) "
                "pieces into one large contiguous access per aggregator"
            )
        if any(a.method == "sort_blockwise" for a in plan.arrays):
            plan.notes.append(
                "irregular arrays are written sorted by their global key so "
                "block-wise access is contiguous per rank"
            )
        return plan

    def _plan_array(self, md: ArrayMetadata) -> ArrayPlan:
        if md.pattern is PatternClass.REGULAR_BLOCK:
            return ArrayPlan(
                array=md,
                method="collective_subarray",
                collective=True,
                rationale=(
                    "regular block partition of a multi-dimensional array: "
                    "each rank's piece is strided in the file, so collective "
                    "two-phase I/O with a subarray file view avoids the many "
                    "small non-contiguous requests"
                ),
            )
        if md.pattern is PatternClass.IRREGULAR:
            return ArrayPlan(
                array=md,
                method="sort_blockwise",
                collective=False,
                rationale=(
                    "position-dependent partition has no closed-form file "
                    "mapping: sort globally by key then write block-wise "
                    "(contiguous per rank, so non-collective I/O suffices); "
                    "read block-wise and redistribute"
                ),
            )
        return ArrayPlan(
            array=md,
            method="independent_contiguous",
            collective=False,
            rationale=(
                "each rank's access is already one contiguous file range; "
                "collective buffering would add communication for no gain"
            ),
        )
