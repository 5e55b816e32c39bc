"""Moved to :mod:`repro.utils.tagarray`; checkpoints written before
that pickle the L2 banks' arrays under this path."""

from repro.utils.tagarray import TagArray  # noqa: F401
