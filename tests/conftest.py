"""Shared fixtures: libraries and configurations are session-scoped
because building and characterizing them is the expensive part of the
suite."""

from __future__ import annotations

import os

import pytest

from repro.cache import ENV_CACHE_DISABLE
from repro.devices.parameters import cmos_32nm, cntfet_32nm

# The suite must be hermetic: several tests assert exact SPICE solve
# counts, which a warm persistent cache would zero out.  Tests that
# exercise the disk cache construct an explicit DiskCache instead.
os.environ[ENV_CACHE_DISABLE] = "1"
from repro.experiments.config import ExperimentConfig
from repro.gates.ambipolar_library import generalized_cntfet_library
from repro.gates.conventional import cmos_library, conventional_cntfet_library


@pytest.fixture(scope="session")
def cmos_tech():
    return cmos_32nm()


@pytest.fixture(scope="session")
def cntfet_tech():
    return cntfet_32nm()


@pytest.fixture(scope="session")
def glib():
    """The 46-cell generalized ambipolar CNTFET library."""
    return generalized_cntfet_library()


@pytest.fixture(scope="session")
def clib():
    """The conventional (MOSFET-like) CNTFET library."""
    return conventional_cntfet_library()


@pytest.fixture(scope="session")
def mlib():
    """The CMOS reference library."""
    return cmos_library()


@pytest.fixture(scope="session")
def tiny_config():
    """A pattern budget small enough for unit tests."""
    return ExperimentConfig(n_patterns=2048, state_patterns=2048)


#: Two definitions of one circuit name, ``foo``: a 3-input AND and a
#: 3-input OR.
FOO_BLIF = {
    "and3": ".model foo\n.inputs a b c\n.outputs y\n"
            ".names a b c y\n111 1\n.end\n",
    "or3": ".model foo\n.inputs a b c\n.outputs y\n"
           ".names a b c y\n1-- 1\n-1- 1\n--1 1\n.end\n",
}


@pytest.fixture
def define_foo():
    """``define_foo("and3")`` / ``define_foo("or3")`` (re-)registers the
    BLIF circuit ``foo`` with that definition; it is unregistered after
    the test."""
    from repro import registry

    def define(kind: str) -> None:
        registry.register_blif_text(FOO_BLIF[kind], replace=True)

    yield define
    registry.unregister_circuit("foo", missing_ok=True)


@pytest.fixture
def cold_race(tmp_path, monkeypatch):
    """Run a call in two forked processes released together on one
    fresh, enabled disk cache; returns each process's counter diff
    (:func:`repro.obs.diff`).

    The call should hold its computation long enough (a sleep in the
    compute) that the second process arrives while the first still
    holds the key's single-flight lock.
    """
    import multiprocessing

    from repro import obs

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "race-cache"))
    monkeypatch.setenv(ENV_CACHE_DISABLE, "0")

    def race(call):
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        results = context.Queue()

        def contender():
            before = obs.snapshot()
            barrier.wait(timeout=30)
            try:
                call()
            finally:
                results.put(obs.diff(before))

        processes = [context.Process(target=contender) for _ in range(2)]
        for process in processes:
            process.start()
        diffs = [results.get(timeout=120) for _ in processes]
        for process in processes:
            process.join(timeout=30)
            assert process.exitcode == 0
        return diffs

    return race
