"""The facaded packages' lazy re-exports, served by one helper."""

import importlib
import subprocess
import sys

import pytest

PACKAGES = ("repro.coyote", "repro.resilience", "repro.service")


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_exported_name_resolves_and_is_cached(package_name):
    package = importlib.import_module(package_name)
    api = importlib.import_module("repro.api")
    assert package.__all__ == sorted(
        set(package._API_NAMES) | set(package._LOCAL_NAMES))
    assert set(package.__all__) <= set(dir(package))
    for name in package.__all__:
        value = getattr(package, name)
        assert vars(package)[name] is value
        if name in package._API_NAMES:
            assert value is getattr(api, name)
        else:
            module = importlib.import_module(package._LOCAL_NAMES[name])
            assert value is getattr(module, name)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError) as caught:
        package.no_such_name
    assert str(caught.value) \
        == f"module {package_name!r} has no attribute 'no_such_name'"


def test_importing_a_package_resolves_nothing():
    # Names resolve on first access only: a fresh process that imports
    # the packages has loaded neither the facade nor a local module.
    probe = ("import sys, repro.coyote, repro.resilience, repro.service\n"
             "print(sorted(name for name in ('repro.api', "
             "'repro.coyote.orchestrator', 'repro.service.journal', "
             "'repro.resilience.watchdog') if name in sys.modules))")
    output = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True).stdout
    assert output.strip() == "[]"
