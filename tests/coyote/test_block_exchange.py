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

import marshal
import multiprocessing
import os
import signal

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
from tests.coyote.test_pointpool import drain

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


def simulate(kernel, **overrides):
    workload = make_workload(kernel, cores=CORES, size=_SIZE[kernel])
    simulation = Simulation(SimulationConfig.for_cores(CORES, **overrides),
                            workload.program)
    document = simulation.run().to_dict()
    for name in HOST_FIELDS:
        del document[name]
    return document, translate.translator_totals(
        simulation.orchestrator.translators)


def matmul():
    return scalar_matmul(size=6, num_cores=CORES)


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


@needs_fork
class TestPool:
    def test_first_worker_feeds_the_parent_second_sends_nothing(
            self, pool):
        first = one_point(pool)
        assert first.blocks == len(_FACTORY_CACHE) > 0  # never simulated
        second = one_point(pool)
        assert second.blocks == 0
        assert len(_FACTORY_CACHE) == first.blocks

    def test_what_the_first_worker_sent_is_all_the_second_needs(
            self, pool, monkeypatch):
        assert one_point(pool).blocks > 0
        forbid_compile(monkeypatch)     # inherited by the next fork
        assert one_point(pool).blocks == 0

    def test_a_child_that_compiled_nothing_sends_no_blocks(
            self, pool, monkeypatch):
        assert not run_point({}, *RECIPE, matmul, True).failed
        before = dict(_FACTORY_CACHE)
        assert before
        imports = []
        monkeypatch.setattr(translate, "import_factories", imports.append)
        assert one_point(pool).blocks == 0
        assert imports == [] and _FACTORY_CACHE == before

    def test_an_export_costs_the_new_blocks_not_the_cache(
            self, pool, monkeypatch):
        """A long-lived parent's cache is never walked — not as a worker
        starts, not as it exports: a worker sends what it compiled, and
        a cache that filled up since the last export sends what it
        still holds."""
        class Unwalkable(dict):
            def __iter__(self):
                raise AssertionError("the factory cache was walked")
            keys = values = items = __iter__

        held = 2048
        cache = Unwalkable((("held", n), None) for n in range(held))
        monkeypatch.setattr(translate, "_FACTORY_CACHE", cache)
        worker = one_point(pool)
        assert worker.blocks == len(cache) - held > 0

        monkeypatch.setattr(translate, "_FACTORY_CACHE_MAX",
                            len(cache) + 4)
        simulate("vector-axpy")
        assert len(cache) < held     # full meant start over
        sent = marshal.loads(translate.export_factories())
        assert len(sent) == len(cache) and all(key in cache
                                               for key in sent)
        assert translate.export_factories() is None

    def test_a_killed_worker_leaves_the_cache_as_it_was(self, pool):
        one_point(pool)
        before = dict(_FACTORY_CACHE)
        assert before
        pool.on_spawn = lambda worker: os.kill(worker.process.pid,
                                               signal.SIGKILL)
        worker = pool.spawn(1, {}, *RECIPE,
                            workload_factory("vector-axpy", CORES, 16))
        (kind, seen, exit_code, _tail), = drain(pool)
        assert (kind, seen, exit_code) \
            == ("died", worker, -signal.SIGKILL)
        assert worker.blocks == 0 and _FACTORY_CACHE == before


def test_nothing_is_sent_under_spawn():
    """A spawned child inherits nothing, so it is told to send nothing:
    results arrive, the parent's cache stays empty."""
    pool = PointPool("spawn")
    try:
        worker = one_point(pool,
                           workload_factory("scalar-matmul", CORES, 6))
    finally:
        pool.close()
    assert worker.blocks == 0 and _FACTORY_CACHE == {}


AXES = {"noc.latency": [2, 4, 6, 8], "mem_latency": [80, 100],
        "l2_mode": ["shared", "private"]}


def documents(table):
    """Every point's full result document, host fields aside."""
    rows = []
    for point in table.points:
        assert not point.failed and point.verified, point.settings
        document = point.results.to_dict()
        for name in HOST_FIELDS:
            del document[name]
        rows.append(document)
    return rows


@needs_fork
class TestCampaign:
    def test_the_service_compiles_each_block_once(self, tmp_path,
                                                  monkeypatch):
        """16 points, one slot: what the attempts carried back is each
        distinct block of the grid exactly once — the blocks a serial
        in-process run of the grid compiles."""
        serial = api.sweep("scalar-matmul", 4, size=8, axes=AXES)
        assert len(serial.points) == 16
        distinct = len(_FACTORY_CACHE)
        assert distinct > 0
        _FACTORY_CACHE.clear()

        services = []

        class Recorded(api.CampaignService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                services.append(self)

        monkeypatch.setattr(api, "CampaignService", Recorded)
        root = tmp_path / "root"
        job = api.submit("scalar-matmul", root=root, axes=AXES, cores=4,
                         size=8)
        table = api.result(job, root=root, wait=True, workers=1)
        assert documents(table) == documents(serial)

        monitor = services[-1].monitor
        assert monitor.counters["attempts"] == 16
        assert monitor.counters["blocks_shared"] == distinct \
            == len(_FACTORY_CACHE)
        carried = [event["args"]["blocks"] for event
                   in monitor.chrome_trace()["traceEvents"]]
        assert len(carried) == 16 and sum(carried) == distinct
        assert carried[0] == max(carried) > 0   # attempt 1 compiles

        # From a warm process nothing is shared at all.
        job = api.submit("scalar-matmul", root=tmp_path / "again",
                         axes=AXES, cores=4, size=8)
        api.result(job, root=tmp_path / "again", wait=True, workers=1)
        assert services[-1].monitor.counters["attempts"] == 16
        assert services[-1].monitor.counters["blocks_shared"] == 0

    def test_a_guest_profiled_sweep_returns_the_serial_table(self):
        """A block carries no profiling code — an observed run wraps
        the function it installs — so profiled and plain runs share
        every factory, and the profile is the worker's own."""
        def sweep(workers, **overrides):
            return api.sweep("scalar-spmv", CORES, size=8,
                             axes={"noc.latency": [2, 4, 6, 8]},
                             workers=workers, **overrides)

        profiled = {"telemetry": TelemetryConfig(guest_profile=True)}
        pooled = sweep(2, **profiled)
        keys = set(_FACTORY_CACHE)
        plain = sweep(2)    # runs on the blocks the profiled sweep made
        assert set(_FACTORY_CACHE) == keys
        # (pc, words, tohost, four geometry ints, the micro-block guard
        # as 0/1): nothing tells a profiled block from a plain one.
        assert all(len(key) == 8 and isinstance(key[1], tuple)
                   and key[7] in (0, 1)
                   and not any(isinstance(member, bool) for member in key)
                   for key in keys)
        _FACTORY_CACHE.clear()
        serial = sweep(1, **profiled)
        assert set(_FACTORY_CACHE) == keys
        assert documents(pooled) == documents(serial)
        assert all(document["guest_profile"]
                   for document in documents(pooled))
        assert [document["cycles"] for document in documents(plain)] \
            == [document["cycles"] for document in documents(serial)]

    def test_a_profiled_run_after_a_plain_one_compiles_nothing(self):
        plain, cold = simulate("scalar-spmv")
        profiled, warm = simulate(
            "scalar-spmv", telemetry=TelemetryConfig(guest_profile=True))
        assert cold["blocks_compiled"] > 0 == warm["blocks_compiled"]
        assert warm["factory_hits"] == cold["factory_hits"] \
            + cold["blocks_compiled"]
        assert "dispatch" in warm and "dispatch" not in cold
        assert profiled.pop("guest_profile")["instructions"] \
            == plain["instructions"]
        assert profiled == plain

    def test_a_supervised_heartbeating_sweep_returns_the_serial_table(
            self):
        def sweep(**kwargs):
            return api.sweep("scalar-matmul", CORES, size=6,
                             axes={"noc.latency": [2, 4, 6, 8]}, **kwargs)

        policy = api.SupervisorPolicy(heartbeat_interval_seconds=0.01)
        supervised = sweep(workers=2, policy=policy)
        assert len(_FACTORY_CACHE) > 0
        _FACTORY_CACHE.clear()
        assert documents(supervised) == documents(sweep(workers=1))
