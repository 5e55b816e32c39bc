"""API-surface lint: every public name flows through ``repro.api``.

The facade contract (docs/API.md) says there is exactly one canonical
import path: a name is either exported by :mod:`repro.api` or declared
internal-but-stable by its package (``_LOCAL_NAMES``).  This tool fails (exit 1) the
moment a package gains a public name outside that contract, so API
drift is caught in CI instead of in a release note.

Checks, in order:

1. ``repro.api`` imports cleanly and every ``__all__`` name resolves.
2. For each facaded package (``repro.coyote``, ``repro.resilience``):
   every ``__all__`` name is covered by the facade or by the package's
   own internal declaration — and nothing is declared in both.
3. Re-exports are *identities*: ``repro.coyote.Simulation is
   repro.api.Simulation`` (two objects under one name would mean two
   canonical paths).

Run it as ``python -m repro.tools.check_api``.
"""

from __future__ import annotations

import importlib
import sys

FACADE = "repro.api"
FACADED_PACKAGES = ("repro.coyote", "repro.resilience", "repro.service")

# Names the facade is contractually required to export (subsystems that
# were announced public; losing one is an API break even if the routing
# bookkeeping stays self-consistent).
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

    for package_name in FACADED_PACKAGES:
        package = importlib.import_module(package_name)
        declared = set(getattr(package, "__all__", ()))
        via_api = set(getattr(package, "_API_NAMES", ()))
        local = set(getattr(package, "_LOCAL_NAMES", ()))
        if not via_api:
            errors.append(f"{package_name} declares no _API_NAMES "
                          f"facade routing")
            continue
        for name in sorted(via_api & local):
            errors.append(f"{package_name}: {name!r} is declared both "
                          f"facade-routed and internal")
        for name in sorted(via_api - exported):
            errors.append(f"{package_name} routes {name!r} through the "
                          f"facade, but {FACADE} does not export it")
        for name in sorted(declared - via_api - local):
            errors.append(f"{package_name} exports public name {name!r} "
                          f"that is neither routed through {FACADE} nor "
                          f"declared internal (_LOCAL_NAMES)")
        for name in sorted(via_api & exported):
            if getattr(package, name) is not getattr(api, name):
                errors.append(f"{package_name}.{name} is not the same "
                              f"object as {FACADE}.{name}")

    if errors:
        return _fail(errors)
    print(f"check_api: OK — {len(exported)} facade exports, "
          f"{len(FACADED_PACKAGES)} packages routed")
    return 0


def main() -> int:
    return check()


if __name__ == "__main__":
    sys.exit(main())
