"""Generated evidence for the one configuration builder.

Every configuration document — a ``--config`` file, a ``--inject`` fault
plan, a ``cluster --fault-plan`` — is turned into dataclasses by
``repro.utils.schema.build``.  Over random valid documents (overrides on
random ``config_paths()`` leaves, random fault lists):

* a document round-trips: ``from_dict(to_dict(c)) == c``, and a plan
  survives ``save`` then ``load``;
* one unknown key inserted at any depth is refused, naming its dotted
  path as ``config_paths()`` spells it (``memhier`` flattened, list
  items as ``[i]``);
* a numeric leaf replaced by a ``str`` or a ``bool`` is refused as
  ``<path> must be a number, got <value>``;
* ``to_dict`` (``schema.plain``) of a built document is what
  ``dataclasses.asdict`` gives and shares no list with the object, so
  ``config_digest`` — and every result-cache key — is pinned.

``--hypothesis-profile=ci`` runs the profile's examples.
"""

import dataclasses
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.coyote.cli import CHOICES
from repro.coyote.config import SimulationConfig, config_paths
from repro.resilience.config import FAULT_KINDS, FAULT_TARGETS, FaultSpec
from repro.resilience.faults import FaultPlan
from repro.service.cache import config_digest
from repro.service.transport import (
    SERVICE_FAULT_KINDS,
    ServiceFaultPlan,
    ServiceFaultSpec,
)

BASE = SimulationConfig.for_cores(8)

# Every leaf but the fault list and the two line sizes, which must agree.
LEAVES = sorted(path for path in config_paths()
                if not dataclasses.is_dataclass(BASE.get(path))
                and path not in ("resilience.faults", "line_bytes",
                                 "l1.line_bytes"))

TYPOS = ("bogus", "extar", "watchdog_cylces", "colums")


def leaf_values(path):
    """Values of one leaf that are valid whatever the other leaves hold."""
    default = BASE.get(path)
    if path in CHOICES:
        return st.sampled_from(list(CHOICES[path]))
    if isinstance(default, bool):
        return st.booleans()
    assert isinstance(default, int), f"no generator for {path}"
    return st.integers(0, 3).map(
        lambda shift: default << shift if default else shift)


windows = st.tuples(st.integers(0, 1000), st.integers(0, 1000)).map(
    lambda pair: (pair[0], pair[0] + pair[1]))

fault_specs = st.builds(
    lambda target, kind, index, window, extra, jitter, probability:
        FaultSpec(target=target, kind=kind,
                  index=-1 if target == "noc" else index,
                  start=window[0], end=window[1], extra=extra,
                  jitter=jitter, probability=probability),
    st.sampled_from(FAULT_TARGETS), st.sampled_from(FAULT_KINDS),
    st.integers(-1, 3), windows, st.integers(0, 20), st.integers(0, 20),
    st.floats(0.0, 1.0))

service_specs = st.builds(
    lambda kind, window, extra, probability, src, dst, nodes:
        ServiceFaultSpec(kind=kind, start=window[0], end=window[1],
                         extra=extra, probability=probability, src=src,
                         dst=dst, nodes=nodes),
    st.sampled_from(SERVICE_FAULT_KINDS), windows, st.integers(0, 5),
    st.floats(0.0, 1.0), st.sampled_from(["*", "dispatcher", "node-1"]),
    st.sampled_from(["*", "dispatcher", "node-1"]),
    st.lists(st.sampled_from(["node-1", "node-2"]), min_size=1,
             max_size=2, unique=True))

configs = st.builds(
    lambda cores, overrides, faults: SimulationConfig.for_cores(
        cores, **overrides, **{"resilience.faults": faults}),
    st.sampled_from([1, 2, 4, 8, 16]),
    st.lists(st.sampled_from(LEAVES), unique=True, max_size=8).flatmap(
        lambda paths: st.fixed_dictionaries(
            {path: leaf_values(path) for path in paths})),
    st.lists(fault_specs, max_size=3))

seeds = st.one_of(st.none(), st.integers(0, 1 << 20))
plans = st.one_of(
    st.builds(FaultPlan, faults=st.lists(fault_specs, max_size=3),
              seed=seeds),
    st.builds(ServiceFaultPlan, faults=st.lists(service_specs, max_size=3),
              seed=seeds))

not_numbers = st.one_of(st.text(max_size=4), st.booleans())


def objects(document, prefix=""):
    """Every dict in ``document`` with how its keys are spelled: the
    top level and ``memhier`` bare, a section as ``name.``, a list item
    as ``name[i].``."""
    yield document, prefix
    for key, value in document.items():
        if isinstance(value, dict):
            yield from objects(value, prefix if key == "memhier" and
                               not prefix else f"{prefix}{key}.")
        elif isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, dict):
                    yield from objects(item, f"{prefix}{key}[{index}].")


def numeric_leaves(document):
    """``(dict, key, path)`` of every number in ``document``."""
    return [(owner, key, prefix + key)
            for owner, prefix in objects(document)
            for key, value in owner.items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)]


def refusal(load, document) -> str:
    with pytest.raises(ValueError) as refused:
        load(document)
    return str(refused.value)


@pytest.fixture(scope="module")
def plan_file(tmp_path_factory):
    return tmp_path_factory.mktemp("plans") / "plan.json"


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("configs") / "config.json"


def plan_loader(kind, path):
    def load(document):
        path.write_text(json.dumps(document))
        return kind.load(path)
    return load


class TestConfigDocuments:
    @settings(deadline=None)
    @given(config=configs)
    def test_round_trip(self, config):
        document = json.loads(json.dumps(config.to_dict()))
        assert SimulationConfig.from_dict(document) == config

    @settings(deadline=None)
    @given(config=configs, data=st.data())
    def test_an_unknown_key_at_any_depth_is_named(self, config, data):
        document = config.to_dict()
        owner, prefix = data.draw(st.sampled_from(list(objects(document))))
        key = data.draw(st.sampled_from(TYPOS))
        owner[key] = 1
        assert refusal(SimulationConfig.from_dict, document) \
            == f"unknown config keys: {[prefix + key]}"

    @settings(deadline=None)
    @given(config=configs, data=st.data())
    def test_a_numeric_leaf_must_be_a_number(self, config, data):
        document = config.to_dict()
        owner, key, path = data.draw(
            st.sampled_from(numeric_leaves(document)))
        owner[key] = value = data.draw(not_numbers)
        assert refusal(SimulationConfig.from_dict, document) \
            == f"{path} must be a number, got {value!r}"

    @settings(deadline=None)
    @given(config=configs)
    def test_to_dict_is_asdict(self, config_file, config):
        built = SimulationConfig.from_dict(json.loads(json.dumps(
            dataclasses.asdict(config))))
        document = built.to_dict()
        assert document == dataclasses.asdict(built)
        assert SimulationConfig.load(built.save(config_file)) == built
        document["resilience"]["faults"].append({})
        assert built == config   # a copy, not a view


class TestPinnedDigests:
    """Recorded before ``to_dict`` stopped being ``dataclasses.asdict``:
    a cache root written then must still be served as hits."""

    def test_default_config(self):
        assert config_digest(SimulationConfig.for_cores(8)) == (
            "3008f22b72c06563d19e41be630d451c3521ef83b6425bfe9f34f89e15f41b96")

    def test_mesh_private_l2_with_faults(self):
        config = SimulationConfig.for_cores(16, **{
            "noc.kind": "mesh", "l2_mode": "private",
            "resilience.fault_seed": 7, "resilience.faults": [
                {"target": "noc", "kind": "delay", "extra": 3},
                {"target": "l2bank", "index": 1, "kind": "duplicate",
                 "probability": 0.5}]})
        assert config_digest(config) == (
            "ffe14da7d9728ef65882780343ab8a9146bd1a13195c8aa9c879457ffa57d8ec")


class TestPlanDocuments:
    @settings(deadline=None)
    @given(plan=plans)
    def test_round_trip(self, plan_file, plan):
        assert type(plan).load(plan.save(plan_file)) == plan

    @settings(deadline=None)
    @given(plan=plans)
    def test_to_dict_is_asdict(self, plan_file, plan):
        built = type(plan).load(plan.save(plan_file))
        document = built.to_dict()
        expected = dataclasses.asdict(built)
        if built.seed is None:
            del expected["seed"]
        assert document == expected
        for item in document["faults"]:
            for value in item.values():
                if isinstance(value, list):
                    value.append("node-9")
        document["faults"].append({})
        assert built == plan   # a copy, not a view

    @settings(deadline=None)
    @given(plan=plans, data=st.data())
    def test_an_unknown_key_at_any_depth_is_named(self, plan_file, plan,
                                                  data):
        document = plan.to_dict()
        owner, prefix = data.draw(st.sampled_from(list(objects(document))))
        key = data.draw(st.sampled_from(TYPOS))
        owner[key] = 1
        assert refusal(plan_loader(type(plan), plan_file), document) \
            == f"{plan_file}: unknown config keys: {[prefix + key]}"

    @settings(deadline=None)
    @given(plan=plans, data=st.data())
    def test_a_numeric_leaf_must_be_a_number(self, plan_file, plan, data):
        document = plan.to_dict()
        leaves = numeric_leaves(document)
        assume(leaves)
        owner, key, path = data.draw(st.sampled_from(leaves))
        owner[key] = value = data.draw(not_numbers)
        assert refusal(plan_loader(type(plan), plan_file), document) \
            == f"{plan_file}: {path} must be a number, got {value!r}"
