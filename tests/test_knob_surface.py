"""The settable surface of the model and stack entry points, pinned.

Each name below is a value a caller can set.  A knob that only tests set
doubles the configurations every gate must cover, so adding one here is a
conscious edit: it needs a preset, strategy, CLI flag or bench cell that
sets it to a second value.
"""

import dataclasses
import inspect

import pytest

from repro.aio import AioConfig
from repro.enzo.simulation import EnzoConfig
from repro.enzo.state import RankState
from repro.iostack import registry
from repro.iostack.transports import FunnelTransport
from repro.pfs import LocalDiskFS, StripedServerFS
from repro.pfs.lustre import LustreFS
from repro.resilience import RetryPolicy

SIGNATURES = {
    "StripedServerFS": (StripedServerFS, (
        "name", "nservers", "stripe_size", "disk_bandwidth", "seek_time",
        "request_cpu_time", "server_net_bandwidth", "net_latency",
        "metadata_time", "cache_bytes_per_server", "client_network",
        "client_channel_bandwidth", "write_token_time", "stripe_aligned_io",
        "smp_io_queue_time", "store",
    )),
    "LustreFS": (LustreFS, (
        "name", "nosts", "stripe_size", "stripe_count", "disk_bandwidth",
        "seek_time", "request_cpu_time", "server_net_bandwidth",
        "net_latency", "ost_queue_time", "mds_open_time", "mds_per_file_time",
        "cache_bytes_per_ost", "client_network", "client_channel_bandwidth",
        "store",
    )),
    "LocalDiskFS": (LocalDiskFS, (
        "name", "nnodes", "disk_bandwidth", "seek_time", "request_cpu_time",
        "metadata_time", "cache_bytes_per_node", "store",
    )),
    "FunnelTransport": (FunnelTransport, ()),
    "registry.create": (registry.create, ("name", "hints", "retry")),
    "RankState.from_hierarchy": (
        RankState.from_hierarchy, ("hierarchy", "rank", "nprocs", "owner"),
    ),
}

FIELDS = {
    "EnzoConfig": (EnzoConfig, (
        "problem", "ncycles", "dump_every", "particles_per_cell", "seed",
        "pre_refine", "max_level", "refine_threshold", "overlap",
        "plot_every", "plot_fields", "output_redshifts", "initial_redshift",
        "final_redshift",
    )),
    "RetryPolicy": (RetryPolicy, ("max_retries",)),
    "AioConfig": (AioConfig, ("staging_bytes",)),
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
    assert sum(len(_settable(entry)) for entry, _ in table.values()) == 63
