"""Address-to-bank data mapping policies.

The paper implements "two different well-known data mapping policies ...
that use different bits of the address to identify the L2 bank that holds
a certain memory block: page-to-bank and set-interleaving".

* **Set-interleaving** uses the bits just above the line offset, so
  consecutive cache lines round-robin across banks — good for spreading a
  unit-stride stream over every bank.
* **Page-to-bank** uses the bits just above the page offset, so each page
  lives entirely in one bank — good locality per bank, but a dense stream
  hammers a single bank one page at a time.
"""

from __future__ import annotations

from functools import cached_property

from repro.utils.bitops import clog2, is_power_of_two


def check_granules(line_bytes: int, page_bytes: int) -> None:
    """A ``ValueError`` unless lines and pages are powers of two and a
    page holds whole lines."""
    if not is_power_of_two(line_bytes):
        raise ValueError(f"line size must be a power of two: "
                         f"{line_bytes}")
    if not is_power_of_two(page_bytes) or page_bytes < line_bytes:
        raise ValueError(f"bad page size {page_bytes}")


class MappingPolicy:
    """Base class: maps a line address to a bank index in [0, num_banks)
    from the bits just above the offset within its ``granule``."""

    name = "abstract"

    def __init__(self, num_banks: int, line_bytes: int = 64,
                 page_bytes: int = 4096):
        if not is_power_of_two(num_banks):
            raise ValueError(f"bank count must be a power of two: "
                             f"{num_banks}")
        check_granules(line_bytes, page_bytes)
        self.num_banks = num_banks
        self.line_bytes = line_bytes
        self.page_bytes = page_bytes
        self._bank_mask = num_banks - 1

    @cached_property
    def _shift(self) -> int:
        """Address bits below the bank index (computed once)."""
        return clog2(getattr(self, self.granule))

    def bank_of(self, line_address: int) -> int:
        return (line_address >> self._shift) & self._bank_mask


class SetInterleaving(MappingPolicy):
    """Consecutive lines map to consecutive banks."""

    name = "set-interleaving"
    granule = "line_bytes"


class PageToBank(MappingPolicy):
    """Each page maps wholly to one bank."""

    name = "page-to-bank"
    granule = "page_bytes"


_POLICIES = {policy.name: policy for policy in (SetInterleaving, PageToBank)}


def make_policy(name: str, num_banks: int, line_bytes: int = 64,
                page_bytes: int = 4096) -> MappingPolicy:
    """Instantiate a mapping policy by name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown mapping policy {name!r}; "
            f"choose from {sorted(_POLICIES)}") from None
    return cls(num_banks, line_bytes, page_bytes)


def policy_names() -> list[str]:
    """Names of all registered mapping policies."""
    return sorted(_POLICIES)
