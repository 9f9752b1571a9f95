"""Strategy registry: declarative (layout x transport x format) compositions.

A checkpoint strategy is a named triple of layer choices plus options,
registered here.  The three strategies the
paper measures are built-in registrations; new hybrids -- like the paper's
Section 5 "how to fix HDF5" composition shipped as ``hdf5-aligned`` -- are
one :func:`register` call:

    from repro.iostack import registry
    registry.register(registry.StrategyComposition(
        name="hdf5-aligned",
        layout="shared-file", transport="collective", format="hdf5",
        options={"meta_aggregation": True, "alignment": 1 << 20},
        variant_of="hdf5",
    ))

The CLI, the regression matrix, and the AutoTuner all resolve strategy
names through this module, so a registration is immediately usable by
``repro simulate --strategy``, ``repro regress --cell`` and ``repro tune``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..pfs.localfs import LocalDiskFS
from .formats import HDF4SDFormat, HDF5Format, RawSharedFormat
from .layouts import FilePerGridLayoutPlanner, SharedFileLayoutPlanner
from .scda import ScdaFormat
from .transports import CollectiveTransport, FunnelTransport, IndependentTransport

__all__ = [
    "FORMATS",
    "LAYOUTS",
    "TRANSPORTS",
    "StrategyComposition",
    "check_filesystem",
    "compositions",
    "create",
    "get",
    "names",
    "register",
    "unregister",
    "upgrade_chain",
]

#: layer name -> implementation class
LAYOUTS = {
    "shared-file": SharedFileLayoutPlanner,
    "file-per-grid": FilePerGridLayoutPlanner,
}
TRANSPORTS = {
    "funnel": FunnelTransport,
    "collective": CollectiveTransport,
    "independent": IndependentTransport,
}
FORMATS = {
    "hdf4-sd": HDF4SDFormat,
    "raw": RawSharedFormat,
    "hdf5": HDF5Format,
    "scda": ScdaFormat,
}


@dataclass(frozen=True)
class StrategyComposition:
    """A named, declarative composition of the three layers.

    ``options`` parameterise the layers (``meta_aggregation`` and
    ``alignment`` for the HDF5 format).
    ``upgrades_to`` feeds the AutoTuner's strategy-upgrade recommendation;
    ``variant_of`` marks this composition as a tuning variant of another
    strategy so the tuner explores it after trying the original.
    """

    name: str
    layout: str
    transport: str
    format: str
    description: str = ""
    options: Mapping = field(default_factory=dict)
    upgrades_to: Optional[str] = None
    variant_of: Optional[str] = None
    #: named file-system requirement, or None when any layout works.
    #: ``"coherent-shared-file"``: every rank's writes must land in one
    #: coherent file image (scda's serial-equivalence promise), which
    #: node-local file systems (each node keeps its own pieces) cannot
    #: provide.
    fs_constraint: Optional[str] = None

    @property
    def takes_hints(self) -> bool:
        """Whether the composed strategy accepts MPI-IO hints."""
        return FORMATS[self.format].takes_hints


_REGISTRY: dict[str, StrategyComposition] = {}


def register(comp: StrategyComposition) -> StrategyComposition:
    """Add a composition; raises on duplicate names or incompatible layers."""
    if comp.name in _REGISTRY:
        raise ValueError(f"strategy {comp.name!r} is already registered")
    try:
        layout_cls = LAYOUTS[comp.layout]
        transport_cls = TRANSPORTS[comp.transport]
        format_cls = FORMATS[comp.format]
    except KeyError as err:
        raise ValueError(
            f"strategy {comp.name!r} references unknown layer {err.args[0]!r}"
        ) from None
    if transport_cls.requires != layout_cls.kind:
        raise ValueError(
            f"strategy {comp.name!r}: transport {comp.transport!r} requires a "
            f"{transport_cls.requires!r} layout, got {layout_cls.kind!r}"
        )
    if format_cls.session_kind != layout_cls.kind:
        raise ValueError(
            f"strategy {comp.name!r}: format {comp.format!r} addresses a "
            f"{format_cls.session_kind!r} layout, got {layout_cls.kind!r}"
        )
    _REGISTRY[comp.name] = comp
    return comp


def unregister(name: str) -> None:
    """Remove a composition (plugin teardown / tests)."""
    _REGISTRY.pop(name, None)


def names() -> tuple[str, ...]:
    """All registered strategy names, sorted."""
    return tuple(sorted(_REGISTRY))


def get(name: str) -> StrategyComposition:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r} (available: {', '.join(names())})"
        ) from None


def compositions() -> tuple[StrategyComposition, ...]:
    return tuple(_REGISTRY[n] for n in sorted(_REGISTRY))


def upgrade_chain(name: str) -> tuple[str, ...]:
    """The transitive ``upgrades_to`` chain from ``name``, in order.

    ``upgrade_chain("hdf4")`` is ``("mpi-io", "mpi-io-async")``.  Unknown
    names yield an empty chain (callers often hold a free-form strategy
    string); cycles are cut rather than looped.
    """
    chain: list[str] = []
    seen = {name}
    comp = _REGISTRY.get(name)
    while comp is not None and comp.upgrades_to and comp.upgrades_to not in seen:
        chain.append(comp.upgrades_to)
        seen.add(comp.upgrades_to)
        comp = _REGISTRY.get(comp.upgrades_to)
    return tuple(chain)


def check_filesystem(name: str, fs) -> None:
    """Raise ``ValueError`` when ``fs`` cannot honour the strategy's
    :attr:`~StrategyComposition.fs_constraint` (a named reason, so the CLI
    can fail with exit 2 instead of silently producing a broken file)."""
    comp = get(name)
    if comp.fs_constraint is None or fs is None:
        return
    if comp.fs_constraint == "coherent-shared-file":
        if isinstance(fs, LocalDiskFS):
            raise ValueError(
                f"strategy {name!r} requires a coherent shared file "
                f"(constraint: coherent-shared-file), but file system "
                f"{fs.name!r} scatters each rank's writes to its node-local "
                f"disk; the committed pieces would never form one "
                f"serial-equivalent file"
            )
        return
    raise ValueError(
        f"strategy {name!r} declares unknown fs constraint "
        f"{comp.fs_constraint!r}"
    )


def create(name: str, *, hints=None, retry=None):
    """Instantiate a registered composition as a runnable strategy.

    ``hints`` apply when the format takes MPI-IO hints (they are ignored
    by ``hdf4``, matching the original driver's signature); a composition
    whose options carry a ``"hints"`` mapping (e.g. the stripe-tuned
    ``mpi-io-lustre``) overlays those pinned knobs on top.
    """
    from ..aio.core import AioConfig
    from ..enzo.io_base import ComposedStrategy
    from ..hdf5.file import H5Costs
    from ..mpiio.hints import Hints

    comp = get(name)
    opts = comp.options
    aio = AioConfig() if opts.get("async") else None
    hint_overrides = opts.get("hints")
    if hint_overrides and comp.takes_hints:
        hints = (hints or Hints()).replace(**hint_overrides)
    layout = LAYOUTS[comp.layout]()
    transport = TRANSPORTS[comp.transport]()
    if comp.format == "hdf4-sd":
        fmt = HDF4SDFormat()
    elif comp.format == "raw":
        fmt = RawSharedFormat(hints or Hints())
    elif comp.format == "scda":
        fmt = ScdaFormat(
            hints or Hints(), block_size=int(opts.get("block_size", 4096))
        )
    else:
        alignment = int(opts.get("alignment", 0))
        fmt = HDF5Format(
            hints or Hints(),
            costs=H5Costs(
                alignment=alignment,
                # H5Pset_alignment semantics: only objects at least one
                # boundary in size are moved to a boundary.
                alignment_threshold=int(
                    opts.get("alignment_threshold", alignment)
                ),
            ),
            meta_aggregation=bool(opts.get("meta_aggregation", False)),
        )
    return ComposedStrategy(
        comp.name, layout, transport, fmt, retry=retry, aio=aio
    )


# -- built-in compositions (the paper's three strategies + the Section 5 fix)

register(StrategyComposition(
    name="hdf4",
    layout="file-per-grid", transport="funnel", format="hdf4-sd",
    description="original ENZO: sequential HDF4 through rank 0, file per grid",
    upgrades_to="mpi-io",
))
register(StrategyComposition(
    name="mpi-io",
    layout="shared-file", transport="collective", format="raw",
    description="paper's optimisation: collective two-phase MPI-IO, one shared file",
    upgrades_to="mpi-io-async",
))
register(StrategyComposition(
    name="hdf5",
    layout="shared-file", transport="collective", format="hdf5",
    description="parallel HDF5 (mpio driver) with 2002-era per-dataset overheads",
    upgrades_to="mpi-io",
))
register(StrategyComposition(
    name="hdf5-aligned",
    layout="shared-file", transport="collective", format="hdf5",
    description="HDF5 with metadata aggregation + aligned data (paper Section 5 remedy)",
    options={"meta_aggregation": True, "alignment": 1 << 20},
    variant_of="hdf5",
))

# -- asynchronous variants (repro.aio): nonblocking writes drained by a
# per-rank background flush service, manifest commit behind a flush barrier

register(StrategyComposition(
    name="mpi-io-async",
    layout="shared-file", transport="collective", format="raw",
    description="collective MPI-IO with nonblocking writes and background flush",
    options={"async": True},
    variant_of="mpi-io",
))
register(StrategyComposition(
    name="hdf5-async",
    layout="shared-file", transport="collective", format="hdf5",
    description="parallel HDF5 over nonblocking writes (VOL-async style)",
    options={"async": True},
    upgrades_to="mpi-io-async",
    variant_of="hdf5",
))
register(StrategyComposition(
    name="hdf5-aligned-async",
    layout="shared-file", transport="collective", format="hdf5",
    description="Section 5 remedies plus background flush (aligned + async)",
    options={"meta_aggregation": True, "alignment": 1 << 20, "async": True},
    variant_of="hdf5-aligned",
))

# -- scda serial-equivalent format + the Lustre stripe-tuned variant

register(StrategyComposition(
    name="mpi-io-scda",
    layout="shared-file", transport="collective", format="scda",
    description="scda serial-equivalent shared file: byte-identical for every P",
    options={"block_size": 4096},
    upgrades_to="mpi-io-scda-async",
    variant_of="mpi-io",
    fs_constraint="coherent-shared-file",
))
register(StrategyComposition(
    name="mpi-io-scda-async",
    layout="shared-file", transport="collective", format="scda",
    description="scda over nonblocking writes, drained before manifest commit",
    options={"block_size": 4096, "async": True},
    variant_of="mpi-io-scda",
    fs_constraint="coherent-shared-file",
))
register(StrategyComposition(
    name="mpi-io-lustre",
    layout="shared-file", transport="collective", format="raw",
    description="collective MPI-IO with Lustre stripe hints pinned (lfs setstripe)",
    options={"hints": {
        "striping_unit": 1 << 20, "striping_factor": 16, "cb_align": 1 << 20,
    }},
    variant_of="mpi-io",
))
