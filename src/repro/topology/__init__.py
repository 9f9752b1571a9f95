"""Machine models: interconnects, SMP nodes, platform presets."""

from .machine import Machine
from .network import Network
from .presets import PRESETS, chiba_city, chiba_city_local, ibm_sp2, lustre, origin2000

__all__ = [
    "Machine",
    "Network",
    "origin2000",
    "ibm_sp2",
    "chiba_city",
    "chiba_city_local",
    "lustre",
    "PRESETS",
]
