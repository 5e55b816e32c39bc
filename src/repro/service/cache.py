"""Content-addressed result cache keyed by (config, kernel, seed).

Identical sweep points are common when many users explore overlapping
design spaces; the simulator is deterministic, so an identical point is
an identical result.  The cache serves such points from disk instead of
re-simulating — and doubles as the service's result store: a completed
point's :class:`~repro.coyote.sweep.SweepPoint` lives here, addressed
by the digest of everything that determines it:

* **config digest** — sha256 over the canonical JSON of the point's
  full :class:`~repro.coyote.config.SimulationConfig` (the same
  ``base + settings`` recipe :func:`~repro.coyote.sweep.run_point`
  builds), so *any* knob that could steer the simulation is in the key;
* **kernel digest** — sha256 over the assembled program (segment bases
  and bytes, entry point, name, core count), so two workloads are only
  "the same" when their loaded images are byte-identical;
* **seed** — the resilience fault seed, spelled into the key
  explicitly (it is also inside the config digest) because seeded
  campaigns are the canonical replay unit.

Integrity is checked, not hoped: every entry is framed and written
atomically (:mod:`repro.utils.atomic`).  One that fails its frame or
does not unpickle is moved aside into ``quarantine/`` (never served,
never fatal), counted, and the point is recomputed.  At-least-once
execution makes duplicate writes possible; they are idempotent — same
key, same bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any

from repro.coyote.config import SimulationConfig
from repro.coyote.sweep import SweepPoint
from repro.utils.atomic import frame, read_framed, write_atomically

CACHE_FORMAT = 1
_ENTRY_MAGIC = b"coyote-result"

#: Bound on the process-wide cache of :func:`point_key` config halves.
CONFIG_KEYS_MAX = 4096
_SCALARS = (str, int, float, bool, type(None))


def config_digest(config: SimulationConfig) -> str:
    """Canonical digest of everything a configuration could change."""
    canonical = json.dumps(config.to_dict(), sort_keys=True,
                           separators=(",", ":"), default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


def kernel_digest(workload) -> str:
    """Digest of a workload's loaded image (program + identity)."""
    digest = hashlib.sha256()
    digest.update(workload.name.encode())
    digest.update(str(workload.num_cores).encode())
    program = workload.program
    digest.update(str(program.entry).encode())
    for segment in sorted(program.segments, key=lambda s: s.base):
        digest.update(str(segment.base).encode())
        digest.update(bytes(segment.data))
    if program.readonly:
        # Stores into these ranges trap: the same bytes unmarked are a
        # different kernel.  Absent when empty, so unmarked images keep
        # their keys.
        digest.update(f"readonly {sorted(program.readonly)}".encode())
    return digest.hexdigest()


def result_key(config_hex: str, kernel_hex: str, seed: int) -> str:
    """The cache key of one (config, kernel, seed) triple."""
    return hashlib.sha256(
        f"{config_hex}:{kernel_hex}:{seed}".encode()).hexdigest()


def point_key(settings: dict[str, Any], base_cores: int,
              base_overrides: dict[str, Any], workload=None, *,
              kernel_hex: str | None = None) -> str:
    """The cache key of one sweep point, built the same way
    :func:`~repro.coyote.sweep.run_point` builds its configuration;
    ``kernel_hex`` is the workload's :func:`kernel_digest` when the
    caller already has it.

    The config half — ``for_cores`` plus :func:`config_digest` — is
    memoised process-wide (at most :data:`CONFIG_KEYS_MAX` entries)
    when ``base_cores`` is an ``int`` and every merged override is
    exactly a ``str``, ``int``, ``float``, ``bool`` or ``None``.  Each
    value is keyed by its name, type and ``repr``, since ``1``,
    ``True`` and ``1.0`` hash equal, and so do ``0.0`` and ``-0.0``.
    Any other value (a list, a dict, a section dataclass) is digested
    afresh on every call, and a recipe that raises is never cached.
    """
    merged = {**base_overrides, **settings}
    if type(base_cores) is int and all(
            type(value) in _SCALARS for value in merged.values()):
        config_hex, seed = _memoised_config_half(
            base_cores, _Overrides(merged))
    else:
        config_hex, seed = _config_half(base_cores, merged)
    if kernel_hex is None:
        kernel_hex = kernel_digest(workload)
    return result_key(config_hex, kernel_hex, seed)


def _config_half(base_cores: int, overrides: dict[str, Any]
                 ) -> tuple[str, int]:
    """``(config_digest, fault_seed)`` of one point's configuration."""
    config = SimulationConfig.for_cores(base_cores, **overrides)
    return config_digest(config), config.resilience.fault_seed


class _Overrides:
    """Scalar overrides that hash and compare by each value's name,
    type and ``repr`` (so ``nan`` equals itself), carrying the values
    for the one call that misses."""

    __slots__ = ("values", "_key")

    def __init__(self, values: dict[str, Any]):
        self.values = values
        self._key = tuple((name, type(value), repr(value))
                          for name, value in values.items())

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Overrides) and self._key == other._key


@functools.lru_cache(maxsize=CONFIG_KEYS_MAX)
def _memoised_config_half(base_cores: int, overrides: _Overrides
                          ) -> tuple[str, int]:
    return _config_half(base_cores, overrides.values)


class ResultCache:
    """Checksummed, atomically-written result store under one root."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.quarantine_dir = self.root / "quarantine"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0

    def _entry_path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.res"

    def get(self, key: str) -> SweepPoint | None:
        """The cached point, or ``None`` (miss, or corrupt-and-aside).

        A corrupt entry — bad magic, short payload, checksum mismatch,
        unreadable pickle — is moved into ``quarantine/`` and reported
        as a miss; it is never served and never raises.
        """
        path = self._entry_path(key)
        try:
            _format, body = read_framed(path, _ENTRY_MAGIC, (CACHE_FORMAT,))
            point = pickle.loads(body)
        except OSError:
            self.misses += 1
            return None
        except Exception:   # a damaged frame, or a body that won't unpickle
            point = None
        if not isinstance(point, SweepPoint):
            self._quarantine(path, key)
            self.misses += 1
            return None
        self.hits += 1
        return point

    def _quarantine(self, path: Path, key: str) -> None:
        self.corrupt += 1
        for attempt in range(1000):
            target = self.quarantine_dir / f"{key}.{attempt}.corrupt"
            if not target.exists():
                break
        try:
            os.replace(path, target)
        except OSError:
            # Removal is an acceptable fallback: never serve it again.
            try:
                path.unlink()
            except OSError:
                pass

    def storable(self, point: SweepPoint) -> bool:
        """Whether ``point`` belongs here.  Only outcomes with results
        do: a point that failed without any (a crash, a timeout, a
        quarantine) is a fact about a host or a model bug, and a cache
        other campaigns read must not serve it to them."""
        return point.results is not None

    def put(self, key: str, point: SweepPoint) -> bool:
        """Atomically store one point; returns False when unpicklable.
        Callers ask :meth:`storable` first."""
        try:
            body = pickle.dumps(point, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomically(path, frame(_ENTRY_MAGIC, CACHE_FORMAT, body), body)
        self.writes += 1
        return True

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt, "writes": self.writes}

