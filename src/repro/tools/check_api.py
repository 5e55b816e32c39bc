"""API-surface lint: ``repro.api`` is the home of every public name.

The facade contract (docs/API.md) has two tiers: a public name is
exported by :mod:`repro.api`, and everything else is imported from the
module that defines it.  This tool fails (exit 1) when the facade
breaks that contract, so API drift is caught in CI instead of in a
release note.

Checks:

1. ``repro.api`` imports cleanly and every ``__all__`` name resolves.
2. Every name in :data:`REQUIRED_FACADE_NAMES` is exported.

Run it as ``python -m repro.tools.check_api``.
"""

from __future__ import annotations

import importlib
import sys

FACADE = "repro.api"

# Names the facade is contractually required to export (subsystems that
# were announced public; losing one is an API break).
REQUIRED_FACADE_NAMES = (
    # the structured interconnect configuration
    "NocConfig",
    "RoutingPolicy",
    # the supervised campaign runtime
    "SupervisorPolicy",
    "RetryPolicy",
    "QuarantinedPoint",
    "AttemptRecord",
    "DegradationEvent",
    # guest-side performance introspection
    "GuestProfile",
    "CpiStack",
    "HotBlock",
    # the durable campaign service
    "submit",
    "status",
    "result",
    "cancel",
    "CampaignService",
    "JobStatus",
    "ServiceError",
    "QueueFullError",
    # the multi-node cluster tier
    "ClusterDispatcher",
    "ClusterNode",
    "ServiceFaultPlan",
    "StaleWriteError",
)


def _fail(errors: list[str]) -> int:
    for error in errors:
        print(f"check_api: {error}", file=sys.stderr)
    print(f"check_api: FAILED ({len(errors)} problem(s))",
          file=sys.stderr)
    return 1


def check() -> int:
    errors: list[str] = []

    api = importlib.import_module(FACADE)
    exported = set(getattr(api, "__all__", ()))
    if not exported:
        return _fail([f"{FACADE} declares no __all__"])
    for name in sorted(exported):
        if not hasattr(api, name):
            errors.append(f"{FACADE}.__all__ lists {name!r} but the "
                          f"module does not define it")
    for name in REQUIRED_FACADE_NAMES:
        if name not in exported:
            errors.append(f"{FACADE} no longer exports required public "
                          f"name {name!r}")
    if errors:
        return _fail(errors)
    print(f"check_api: OK — {len(exported)} facade exports")
    return 0


def main() -> int:
    return check()


if __name__ == "__main__":
    sys.exit(main())
