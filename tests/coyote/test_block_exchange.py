"""The translated-block exchange: a campaign compiles a block once.

``translate.export_factories`` / ``import_factories`` move compiled
block factories between processes as marshalled code objects; the point
pool uses them so that what one forked worker had to compile, the next
one inherits.  Proven here: an imported factory *is* the compiled one
(same code, same simulated results with ``compile`` forbidden), the
import respects the cache's own rules, and every way a campaign runs
points — the pool driven bare, the journaled service, plain, profiled
and supervised sweeps, ``spawn``, a killed worker — behaves as designed.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import api
from repro.coyote import Simulation, SimulationConfig
from repro.coyote.cli import make_workload
from repro.coyote.parallel import PointPool
from repro.coyote.sweep import run_point
from repro.kernels import KERNELS, scalar_matmul, workload_factory
from repro.spike import translate
from repro.spike.translate import _FACTORY_CACHE
from repro.telemetry import TelemetryConfig
from tests.coyote.test_differential import _SIZE

HOST_FIELDS = ("wall_seconds", "host_mips")
CORES = 2
RECIPE = (CORES, {})    # base_cores, base_overrides

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="blocks are shared with forked workers only")


@pytest.fixture(autouse=True)
def cold_cache():
    """Every test starts from an empty factory cache, and leaves the
    process's own as it found it."""
    saved = dict(_FACTORY_CACHE)
    _FACTORY_CACHE.clear()
    yield
    _FACTORY_CACHE.clear()
    _FACTORY_CACHE.update(saved)


def forbid_compile(monkeypatch):
    """From here on (forked children included) translating a block is
    an error: a module global shadows the builtin."""
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a block was compiled")
    monkeypatch.setattr(translate, "compile", forbidden, raising=False)


def simulate(kernel):
    workload = make_workload(kernel, cores=CORES, size=_SIZE[kernel])
    simulation = Simulation(SimulationConfig.for_cores(CORES),
                            workload.program)
    document = simulation.run().to_dict()
    for name in HOST_FIELDS:
        del document[name]
    return document, translate.translator_totals(
        simulation.orchestrator.translators)


def matmul():
    return scalar_matmul(size=6, num_cores=CORES)


def drain(pool, timeout=60.0):
    events = []
    deadline = time.monotonic() + timeout
    while pool and time.monotonic() < deadline:
        events.extend(pool.poll(0.05))
    assert not pool, "pool did not drain within the timeout"
    return events


def one_point(pool, factory=matmul, settings=None):
    """Run one point through ``pool``; returns its worker."""
    worker = pool.spawn(0, settings or {}, *RECIPE, factory)
    (kind, seen, point), = drain(pool)
    assert kind == "result" and seen is worker and not point.failed
    return worker


@pytest.fixture
def pool():
    pool = PointPool(term_grace_seconds=0.3)
    yield pool
    pool.close()


class TestRoundTrip:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_an_imported_factory_is_the_compiled_one(self, kernel,
                                                     monkeypatch):
        cold, totals = simulate(kernel)
        assert totals["blocks_compiled"] == len(_FACTORY_CACHE) > 0
        compiled = {key: factory.__code__
                    for key, factory in _FACTORY_CACHE.items()}
        payload = translate.export_factories(set())

        _FACTORY_CACHE.clear()
        assert translate.import_factories(payload) == len(compiled)
        assert set(_FACTORY_CACHE) == set(compiled)
        for key, code in compiled.items():
            imported = _FACTORY_CACHE[key].__code__
            assert imported is not code
            assert (imported.co_code, imported.co_consts,
                    imported.co_names) \
                == (code.co_code, code.co_consts, code.co_names)

        forbid_compile(monkeypatch)
        warm, totals = simulate(kernel)
        assert warm == cold
        assert (totals["blocks_compiled"], totals["compile_seconds"]) \
            == (0, 0.0)
        assert totals["factory_hits"] > 0

    def test_export_is_what_was_added_since_the_snapshot(self):
        assert translate.export_factories(set()) is None
        simulate("scalar-matmul")
        known = set(_FACTORY_CACHE)
        assert translate.export_factories(known) is None
        simulate("vector-axpy")
        payload = translate.export_factories(known)
        added = set(_FACTORY_CACHE) - known
        assert added
        _FACTORY_CACHE.clear()
        translate.import_factories(payload)
        assert set(_FACTORY_CACHE) == added

    def test_import_never_overwrites_an_existing_key(self):
        simulate("scalar-matmul")
        payload = translate.export_factories(set())
        kept = dict(_FACTORY_CACHE)
        dropped = next(iter(kept))
        del _FACTORY_CACHE[dropped]
        assert translate.import_factories(payload) == len(kept)
        assert set(_FACTORY_CACHE) == set(kept)
        for key, factory in _FACTORY_CACHE.items():
            assert (factory is kept[key]) == (key != dropped)

    def test_import_honours_the_cache_bound(self, monkeypatch):
        simulate("scalar-matmul")
        payload = translate.export_factories(set())
        carried = len(_FACTORY_CACHE)
        bound = 4
        assert carried > 2 * bound
        monkeypatch.setattr(translate, "_FACTORY_CACHE_MAX", bound)
        _FACTORY_CACHE.clear()
        assert translate.import_factories(payload) == carried
        # The compile path's rule: full means start over.
        assert len(_FACTORY_CACHE) == (carried % bound or bound)
