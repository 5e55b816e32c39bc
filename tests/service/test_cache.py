"""The content-addressed result cache: keys, integrity, quarantine.

Three guarantees under test: the key covers everything that determines
a result (config knob, kernel image, fault seed — change any one and
the key changes), a corrupt entry is *never served and never fatal* —
every corruption mode yields a miss with the bad entry set aside — and
concurrent same-key writers from separate processes (a cluster's nodes
racing on one shared cache) leave exactly one checksummed entry with
no torn read ever observable.
"""

import hashlib
import multiprocessing
import os

import pytest

from repro.assembler import DataBlock, assemble
from repro.coyote.config import SimulationConfig
from repro.coyote.sweep import SweepPoint
from repro.kernels import vector_axpy
from repro.kernels.workload import Workload
from repro.service.cache import (
    ResultCache,
    config_digest,
    kernel_digest,
    point_key,
    result_key,
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def make_point(latency=2):
    return SweepPoint(settings={"noc.latency": latency}, results=None,
                      verified=True)


def _hammer_put(root, key, barrier):
    """Child-process body for the same-key writer race: both writers
    put identical bytes (the content-addressing contract) as fast as
    they can."""
    cache = ResultCache(root)
    point = make_point()
    barrier.wait()
    for _ in range(50):
        cache.put(key, point)


class TestKeys:
    def test_config_digest_is_canonical(self):
        first = SimulationConfig.for_cores(2, **{"noc.latency": 4})
        second = SimulationConfig.for_cores(2, **{"noc.latency": 4})
        assert config_digest(first) == config_digest(second)

    def test_any_config_knob_changes_the_key(self):
        base = SimulationConfig.for_cores(2)
        for override in ({"noc.latency": 9}, {"l2_mode": "private"},
                         {"mem_latency": 55}, {"vlen_bits": 256}):
            changed = SimulationConfig.for_cores(2, **override)
            assert config_digest(changed) != config_digest(base), override

    def test_kernel_digest_covers_the_loaded_image(self):
        small = kernel_digest(vector_axpy(length=32, num_cores=2))
        again = kernel_digest(vector_axpy(length=32, num_cores=2))
        bigger = kernel_digest(vector_axpy(length=64, num_cores=2))
        assert small == again
        assert small != bigger

    @staticmethod
    def _one_block(readonly):
        """The same image bytes, its one data block marked or not."""
        block = DataBlock("table", bytes(range(64)) * 128, align=4096,
                          readonly=readonly)
        return Workload("one-block", assemble(".text\nret\n", data=[block]),
                        2, verify=lambda memory: True)

    def test_readonly_marks_are_part_of_the_kernel(self):
        marked, unmarked = self._one_block(True), self._one_block(False)
        assert marked.program.segments == unmarked.program.segments
        assert marked.program.readonly and not unmarked.program.readonly
        # A store into the marked block traps; the unmarked one runs.
        assert kernel_digest(marked) != kernel_digest(unmarked)

    def test_an_image_without_readonly_blocks_keeps_its_digest(self):
        workload = self._one_block(False)
        program = workload.program
        # The digest as it was computed before read-only ranges existed.
        digest = hashlib.sha256()
        digest.update(workload.name.encode())
        digest.update(str(workload.num_cores).encode())
        digest.update(str(program.entry).encode())
        for segment in sorted(program.segments, key=lambda s: s.base):
            digest.update(str(segment.base).encode())
            digest.update(bytes(segment.data))
        assert kernel_digest(workload) == digest.hexdigest()

    def test_seed_is_part_of_the_key(self):
        assert result_key("c" * 64, "k" * 64, 0) \
            != result_key("c" * 64, "k" * 64, 1)

    def test_point_key_matches_run_point_recipe(self):
        workload = vector_axpy(length=32, num_cores=2)
        key = point_key({"noc.latency": 4}, 2, {}, workload)
        config = SimulationConfig.for_cores(2, **{"noc.latency": 4})
        assert key == result_key(config_digest(config),
                                 kernel_digest(workload),
                                 config.resilience.fault_seed)


class TestRoundtrip:
    def test_put_get(self, cache):
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        assert cache.put(key, make_point())
        fetched = cache.get(key)
        assert fetched.settings == {"noc.latency": 2}
        assert fetched.verified
        assert cache.stats() == {"hits": 1, "misses": 1, "corrupt": 0,
                                 "writes": 1}

    def test_duplicate_put_is_idempotent(self, cache):
        key = "ab" + "0" * 62
        cache.put(key, make_point())
        cache.put(key, make_point())  # at-least-once: same key, same bytes
        assert cache.get(key).settings == {"noc.latency": 2}

    def test_unpicklable_point_is_refused(self, cache):
        point = SweepPoint(settings={"x": lambda: 1}, results=None,
                           verified=False)
        assert not cache.put("cd" + "0" * 62, point)
        assert cache.get("cd" + "0" * 62) is None


class TestCorruption:
    KEY = "ef" + "0" * 62

    def entry_path(self, cache):
        return cache._entry_path(self.KEY)

    def corrupt_modes(self):
        return ("truncate", "flip", "garbage-header", "bad-pickle",
                "empty")

    def corrupt(self, cache, mode):
        path = self.entry_path(cache)
        blob = path.read_bytes()
        if mode == "truncate":
            path.write_bytes(blob[:len(blob) // 2])
        elif mode == "flip":
            mutated = bytearray(blob)
            mutated[-1] ^= 0xFF
            path.write_bytes(bytes(mutated))
        elif mode == "garbage-header":
            path.write_bytes(b"not a cache entry\n" + blob)
        elif mode == "bad-pickle":
            header, _, _body = blob.partition(b"\n")
            import hashlib
            fake = b"\x80\x05garbage"
            parts = header.split()
            parts[2] = hashlib.sha256(fake).hexdigest().encode()
            parts[3] = str(len(fake)).encode()
            path.write_bytes(b" ".join(parts) + b"\n" + fake)
        elif mode == "empty":
            path.write_bytes(b"")

    @pytest.mark.parametrize("mode", ["truncate", "flip",
                                      "garbage-header", "bad-pickle",
                                      "empty"])
    def test_corrupt_entry_is_quarantined_not_served(self, cache, mode):
        cache.put(self.KEY, make_point())
        self.corrupt(cache, mode)
        assert cache.get(self.KEY) is None  # never served, never fatal
        assert not self.entry_path(cache).exists()
        aside = list(cache.quarantine_dir.glob(f"{self.KEY}.*.corrupt"))
        assert len(aside) == 1
        assert cache.corrupt == 1
        # The slot is clean: a recompute can fill it again.
        assert cache.put(self.KEY, make_point())
        assert cache.get(self.KEY) is not None

    def test_repeated_corruption_keeps_distinct_quarantine_files(
            self, cache):
        for _ in range(3):
            cache.put(self.KEY, make_point())
            self.corrupt(cache, "flip")
            assert cache.get(self.KEY) is None
        aside = list(cache.quarantine_dir.glob(f"{self.KEY}.*.corrupt"))
        assert len(aside) == 3

    def test_no_scratch_files_left_behind(self, cache):
        cache.put(self.KEY, make_point())
        leftovers = [path for path in cache.objects.rglob("*")
                     if path.is_file() and path.suffix == ".tmp"]
        assert leftovers == []

    def test_concurrent_same_key_writers_never_tear(self, tmp_path):
        """Two separate processes race ``put`` on one key — the shape
        of a cluster's nodes finishing the same point against a shared
        cache.  The atomic-replace discipline must leave exactly one
        checksummed entry, and a reader polling throughout must never
        observe a torn entry (which would show up as a quarantined
        ``corrupt`` count, or an exception)."""
        root = tmp_path / "cache"
        key = self.KEY
        context = multiprocessing.get_context(
            "fork" if "fork"
            in multiprocessing.get_all_start_methods() else "spawn")
        barrier = context.Barrier(3)
        writers = [context.Process(target=_hammer_put,
                                   args=(root, key, barrier),
                                   daemon=True)
                   for _ in range(2)]
        for writer in writers:
            writer.start()
        reader = ResultCache(root)
        barrier.wait()  # release both writers at the same instant
        while any(writer.is_alive() for writer in writers):
            point = reader.get(key)  # must never raise, never tear
            if point is not None:
                assert point.settings == {"noc.latency": 2}
        for writer in writers:
            writer.join()
            assert writer.exitcode == 0
        assert reader.corrupt == 0
        final = reader.get(key)
        assert final.verified and final.settings == {"noc.latency": 2}
        entries = [path for path in reader.objects.rglob("*")
                   if path.is_file()]
        assert len(entries) == 1  # one entry, no scratch leftovers

    def test_atomic_write_via_replace(self, cache, monkeypatch):
        """A crash mid-put must never leave a partial entry under the
        key: the write lands via os.replace or not at all."""
        real_replace = os.replace
        calls = []

        def exploding_replace(src, dst):
            calls.append((src, dst))
            raise OSError("simulated crash at the replace boundary")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated"):
            cache.put(self.KEY, make_point())
        monkeypatch.setattr(os, "replace", real_replace)
        assert not self.entry_path(cache).exists()
        assert cache.get(self.KEY) is None
        assert cache.corrupt == 0  # a missing entry is a miss, not rot
