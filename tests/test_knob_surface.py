"""The settable surface of the model and stack entry points, pinned.

Each name below is a value a caller can set.  A knob that only tests set
doubles the configurations every gate must cover, so adding one here is a
conscious edit: it needs a preset, strategy, CLI flag or bench cell that
sets it to a second value.  The I/O libraries' opens are pinned the same
way, and so are the MPI-IO ``File`` method list, the MPI datatypes, the
names ``repro.mpi`` and ``repro.topology`` export and the ``Comm`` methods:
a library entry point exists because a strategy, CLI command or bench cell
calls it.
"""

import dataclasses
import inspect

import pytest

from repro import mpi, topology
from repro.bench import build_initial_workload, build_scale_workload, build_workload
from repro.enzo.simulation import EnzoConfig
from repro.enzo.state import RankState
from repro.hdf4 import SDFile
from repro.hdf5 import H5File
from repro.insights import AutoTuner, diagnose
from repro.iostack import registry
from repro.iostack.transports import FunnelTransport
from repro.mpi import Comm, datatypes
from repro.mpiio import ADIOFile, File
from repro.pfs import LocalDiskFS, StripedServerFS
from repro.pfs.lustre import LustreFS
from repro.resilience import RetryPolicy
from repro.topology import presets

SIGNATURES = {
    "StripedServerFS": (StripedServerFS, (
        "name", "nservers", "stripe_size", "disk_bandwidth", "seek_time",
        "request_cpu_time", "server_net_bandwidth", "net_latency",
        "metadata_time", "cache_bytes_per_server", "client_network",
        "client_channel_bandwidth", "write_token_time", "stripe_aligned_io",
        "smp_io_queue_time",
    )),
    "LustreFS": (LustreFS, (
        "name", "nosts", "stripe_size", "stripe_count", "disk_bandwidth",
        "seek_time", "request_cpu_time", "server_net_bandwidth",
        "net_latency", "ost_queue_time", "mds_open_time", "mds_per_file_time",
        "cache_bytes_per_ost", "client_network", "client_channel_bandwidth",
    )),
    "LocalDiskFS": (LocalDiskFS, (
        "name", "nnodes", "disk_bandwidth", "seek_time", "request_cpu_time",
        "metadata_time", "cache_bytes_per_node",
    )),
    "FunnelTransport": (FunnelTransport, ()),
    "registry.create": (registry.create, ("name", "hints", "retry")),
    "RankState.from_hierarchy": (
        RankState.from_hierarchy, ("hierarchy", "rank", "nprocs"),
    ),
    "File.open": (File.open, ("comm", "path", "mode", "hints", "retry", "aio")),
    "ADIOFile.open": (ADIOFile.open, ("comm", "path", "create", "retry", "aio")),
    "SDFile.start": (SDFile.start, ("comm", "path", "mode", "retry")),
    # H5File.create / H5File.open forward their keywords here.
    "H5File._open_impl": (H5File._open_impl, (
        "comm", "path", "mode", "hints", "costs", "retry", "aio",
        "meta_aggregation",
    )),
    "diagnose": (diagnose, (
        "trace", "nprocs", "nnodes", "stripe_size", "stripe_widen_to",
        "hints", "strategy",
    )),
    "AutoTuner": (AutoTuner, (
        "machine_factory", "problem", "nprocs", "strategy", "max_rounds",
        "retry",
    )),
    "build_workload": (build_workload, ("problem",)),
    "build_initial_workload": (build_initial_workload, ("problem",)),
    "build_scale_workload": (build_scale_workload, ("nprocs",)),
}

FIELDS = {
    "EnzoConfig": (EnzoConfig, ("problem", "ncycles", "dump_every", "overlap")),
    "RetryPolicy": (RetryPolicy, ("max_retries",)),
}


def _settable(entry) -> tuple[str, ...]:
    if dataclasses.is_dataclass(entry):
        return tuple(f.name for f in dataclasses.fields(entry))
    return tuple(inspect.signature(entry).parameters)


@pytest.mark.parametrize("name", sorted({**SIGNATURES, **FIELDS}))
def test_entry_point_knobs_are_pinned(name):
    entry, expected = {**SIGNATURES, **FIELDS}[name]
    assert _settable(entry) == expected


def test_settable_surface_total():
    table = {**SIGNATURES, **FIELDS}
    assert sum(len(_settable(entry)) for entry, _ in table.values()) == 87


def test_mpiio_file_methods_are_pinned():
    assert sorted(n for n in vars(File) if not n.startswith("_")) == [
        "close", "open", "read_at", "read_at_all", "set_view", "sync",
        "view_segments", "write", "write_all", "write_at", "write_at_all",
    ]


def test_mpi_datatypes_are_pinned():
    assert datatypes.__all__ == [
        "Datatype", "Named", "Subarray", "BYTE", "FLOAT64", "merge_segments",
    ]


def test_mpi_exports_are_pinned():
    """One communicator per job, receives that name their source and tag:
    no sub-communicators, wildcards, polls or ``MAX`` / ``MIN``."""
    assert mpi.__all__ == [
        "Comm", "Message", "MpiWorld", "payload_nbytes", "run_spmd",
        "SpmdResult", "Request", "isend", "irecv", "waitall", "collectives",
        "datatypes", "barrier", "bcast", "gather", "gatherv", "scatter",
        "scatterv", "allgather", "alltoall", "alltoallv", "reduce",
        "allreduce", "exscan", "SUM", "Datatype", "Named", "Subarray",
        "merge_segments", "BYTE", "FLOAT64",
    ]


def test_topology_exports_are_pinned():
    """One interconnect class: a platform is a preset passing constants
    to ``Network``, not a subclass filling its defaults."""
    assert topology.__all__ == [
        "Machine", "Network", "origin2000", "ibm_sp2", "chiba_city",
        "chiba_city_local", "lustre", "PRESETS",
    ]


def test_every_preset_imports_from_the_topology_package():
    """``from repro.topology import <preset>`` works for each preset the
    presets module exports, ``lustre`` included."""
    for name in presets.__all__:
        assert name in topology.__all__
        assert getattr(topology, name) is getattr(presets, name)
    assert set(topology.PRESETS) <= set(topology.__all__)


def test_comm_methods_are_pinned():
    assert sorted(n for n in vars(Comm) if not n.startswith("_")) == [
        "clock", "compute", "machine", "recv", "send",
    ]
