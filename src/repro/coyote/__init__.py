"""Coyote: the execution-driven simulator (orchestrator + public API).

The public names live in :mod:`repro.api`; everything else, such as
:class:`~repro.coyote.orchestrator.Orchestrator` or
:class:`~repro.coyote.trace.MissTraceRecorder`, is imported from the
module that defines it.
"""
