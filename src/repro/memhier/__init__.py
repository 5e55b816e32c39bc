"""The Sparta-modelled memory hierarchy: L2 banks, NoC, memory
controllers, bank-mapping policies, and the tiled-system assembly."""

from repro.memhier.hierarchy import MemHierConfig, MemoryHierarchy
from repro.memhier.l2bank import CacheBank, L2Bank
from repro.memhier.mapping import (
    MappingPolicy,
    PageToBank,
    SetInterleaving,
    make_policy,
    policy_names,
)
from repro.memhier.memctrl import MemoryController
from repro.memhier.noc import (
    CrossbarNoC,
    MeshNoC,
    NocConfig,
    NocError,
    NocMessage,
    RoutingPolicy,
    make_noc,
)
from repro.memhier.request import MemRequest, RequestKind
from repro.utils.tagarray import TagArray

__all__ = [
    "CacheBank",
    "CrossbarNoC",
    "L2Bank",
    "MappingPolicy",
    "MemHierConfig",
    "MemRequest",
    "MemoryController",
    "MemoryHierarchy",
    "MeshNoC",
    "NocConfig",
    "NocError",
    "NocMessage",
    "PageToBank",
    "RequestKind",
    "RoutingPolicy",
    "SetInterleaving",
    "TagArray",
    "make_noc",
    "make_policy",
    "policy_names",
]
