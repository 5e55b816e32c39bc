"""Memoised point keys are the keys.

:func:`~repro.service.cache.point_key` memoises its config half —
``for_cores`` plus ``config_digest`` — for points whose overrides are
all plain scalars.  A cache key that moved would turn every warm root
cold, and one that collided would serve one design's results for
another, so this file checks the memo against the recipe itself:

* over generated ``base_cores``, base overrides and settings on real
  config paths — including values that hash equal but are not the same
  (``1`` / ``True`` / ``1.0``, ``0.0`` / ``-0.0``), ``nan``, ``None``,
  strings, lists, tuples and dicts — every key, first call or cached,
  equals the unmemoised recipe's, and a recipe that raises raises the
  same error both ways;
* a draw with a non-scalar value never enters the cache, and the cache
  never holds more than its bound;
* three keys recorded before the memo existed still come out, so a
  cache root written then stays warm.

The examples are derandomized.  Tier-1 runs 40 of them; CI's
``service-smoke`` job runs the ``ci`` profile (``tests/conftest.py``).
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.coyote.config import SimulationConfig, config_paths  # noqa: E402
from repro.kernels import scalar_matmul  # noqa: E402
from repro.service.cache import (  # noqa: E402
    CONFIG_KEYS_MAX,
    _memoised_config_half,
    config_digest,
    point_key,
    result_key,
)

KERNEL_HEX = "5e" * 32
SCALAR_TYPES = (str, int, float, bool, type(None))

# Values that compare or hash equal without being the same value.
CONFUSABLE = (1, True, 1.0, 0, False, 0.0, -0.0, math.nan, math.inf,
              None, "1", "")
DEFAULTS = {path: SimulationConfig.for_cores(4).get(path)
            for path in config_paths()}
NAMES = sorted(DEFAULTS) + ["mem_latncy"]      # one name that is no path

SCALARS = st.one_of(
    st.sampled_from(CONFUSABLE), st.integers(-2, 300), st.booleans(),
    st.floats(allow_nan=True), st.text(max_size=3), st.none())
NON_SCALARS = st.one_of(
    st.lists(SCALARS, max_size=2), st.tuples(SCALARS),
    st.dictionaries(st.sampled_from(("kind", "latency", "x")), SCALARS,
                    max_size=2))


def near_default(name):
    """Mostly values the field takes, so most recipes build."""
    default = DEFAULTS.get(name)
    if type(default) is int:
        return st.sampled_from((default, 2 * default, default + 1))
    if isinstance(default, (str, bool)):
        return st.just(default)
    return SCALARS


def value_for(name):
    near = near_default(name)
    return st.one_of(near, near, SCALARS, NON_SCALARS)   # half near


@st.composite
def overrides(draw, max_size=3):
    names = draw(st.lists(st.sampled_from(NAMES), max_size=max_size,
                          unique=True))
    return {name: draw(value_for(name)) for name in names}


POINTS = st.tuples(
    st.one_of(st.sampled_from((1, 2, 4, 8, 16)),
              st.sampled_from((3, 0, True, 4.0))), overrides(2),
    overrides(3))


def recipe(cores, base, point_settings):
    """The key as it was computed before the memo: no cache at all."""
    config = SimulationConfig.for_cores(cores, **{**base, **point_settings})
    return result_key(config_digest(config), KERNEL_HEX,
                      config.resilience.fault_seed)


def memoised(cores, base, point_settings):
    return point_key(point_settings, cores, base, kernel_hex=KERNEL_HEX)


def outcome(function, cores, base, point_settings):
    """``("key", hex)`` or ``("raises", type, message)``."""
    try:
        return "key", function(cores, base, point_settings)
    except Exception as exc:
        return "raises", type(exc), str(exc)


def scalar_only(cores, base, point_settings):
    return type(cores) is int and all(
        type(value) in SCALAR_TYPES
        for value in {**base, **point_settings}.values())


def lookups():
    info = _memoised_config_half.cache_info()
    assert info.maxsize == CONFIG_KEYS_MAX
    assert info.currsize <= CONFIG_KEYS_MAX
    return info.hits + info.misses


_CI = settings.get_profile("ci")
_EXAMPLES = _CI.max_examples if settings.default is _CI else 40


@settings(max_examples=_EXAMPLES, derandomize=True, deadline=None)
@given(draws=st.lists(POINTS, min_size=1, max_size=4))
def test_memoised_keys_are_the_recipes_keys(draws):
    """Several draws per example, so values that hash equal meet in one
    cache; each is asked cold, then warm, then after a clear."""
    expected = [outcome(recipe, *draw) for draw in draws]
    for _pass in ("fills", "reads"):
        for draw, want in zip(draws, expected):
            before = lookups()
            assert outcome(memoised, *draw) == want, draw
            assert lookups() - before == scalar_only(*draw), draw
    _memoised_config_half.cache_clear()
    for draw, want in zip(draws, expected):
        assert outcome(memoised, *draw) == want, draw


@pytest.mark.parametrize("first, second", [
    (1, True), (1, 1.0), (True, 1.0), (0, False), (0.0, -0.0),
    (math.nan, "nan"), (None, "None")])
def test_values_that_hash_equal_keep_their_own_keys(first, second):
    for name in ("mem_latency", "noc.wrap", "resilience.fault_seed"):
        for value in (first, second, first):
            assert outcome(memoised, 4, {}, {name: value}) \
                == outcome(recipe, 4, {}, {name: value}), (name, value)


def test_the_cache_stays_within_its_bound():
    _memoised_config_half.cache_clear()
    for latency in range(CONFIG_KEYS_MAX + 8):
        point_key({"mem_latency": latency + 1}, 1, {},
                  kernel_hex=KERNEL_HEX)
    info = _memoised_config_half.cache_info()
    assert info.currsize == CONFIG_KEYS_MAX
    assert info.misses == CONFIG_KEYS_MAX + 8


def test_an_unbuildable_recipe_is_not_cached():
    _memoised_config_half.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="at least one core"):
            point_key({"noc.latency": 4}, 0, {}, kernel_hex=KERNEL_HEX)
    assert _memoised_config_half.cache_info().currsize == 0


# Keys recorded before the memo existed: a root written then stays warm.
PINNED = [
    (({"l2_mode": "private", "noc.latency": 6, "mem_latency": 100,
       "mapping_policy": "page-to-bank"}, 4, {}), "0" * 64,
     "d42987e2f46b5dd1b1bc67c8b879dcea6aae1110fff2c3fb4824ce50375d424f"),
    (({"noc.kind": "mesh", "resilience.fault_seed": 7}, 16,
      {"l3_enable": True, "noc.wrap": False,
       "telemetry.histograms": True}), "ab" * 32,
     "ea47ae713c9547692f6897dc2ad1a99879d23d4d2ba34eb1cfe836b45112fff6"),
    (({"noc.latency": 4}, 4, {}), None,
     "314f2df5a8824664109996f166d340c6fa61ccc848da3167bf169398da65ab99"),
]


@pytest.mark.parametrize("args, kernel_hex, key", PINNED)
def test_keys_recorded_before_the_memo_still_come_out(args, kernel_hex,
                                                      key):
    workload = (scalar_matmul(size=8, num_cores=4)
                if kernel_hex is None else None)
    for _call in ("cold", "cached"):
        assert point_key(*args, workload, kernel_hex=kernel_hex) == key
