"""Compatibility with what earlier builds wrote: pinned key values, and
configs that still carry the removed ``sim_kernel`` execution knob.

Sweep stores and request bodies written while configs had a
``sim_kernel`` field must load, hash to the same ``query_key`` and
warm-start a server exactly as before.
"""

import json

import pytest

from repro.api import Session
from repro.circuits.families import random_mapped_netlist
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.schema import PowerQuery, quote_from_record
from repro.serve import Engine
from repro.sim import activity
from repro.sweep.spec import SweepSpec

#: Key values recorded while ``ExperimentConfig`` still had its
#: ``sim_kernel`` field: t481 on cntfet-generalized at 2048 patterns.
PINNED_QUERY_KEY = "ac24c038b15f609906ec7857564352c1"

#: ``random_mapped_netlist(cmos, gates=40, seed=3)``: its content key,
#: and two activity keys (the second one's 100 state patterns round to
#: two whole words).
PINNED_NETLIST_KEY = "e0979ee7e05a1be591ade1c70bfe59f3"
PINNED_ACTIVITY_KEY = "2abd54884df4429775bfa012127eefc7"
PINNED_ROUNDED_ACTIVITY_KEY = "6f18e5e613ad5f7f13a2e7278f4c19cb"


def _legacy_config(config):
    return dict(config.to_dict(), sim_kernel="array")


class TestPinnedKeys:
    def test_query_key(self, tiny_config):
        query = PowerQuery(circuit="t481", library="cntfet-generalized",
                           config=tiny_config)
        assert query.query_key == PINNED_QUERY_KEY

    def test_activity_keys(self, mlib):
        netlist = random_mapped_netlist(mlib, gates=40, seed=3)
        assert activity.netlist_activity_key(netlist) == PINNED_NETLIST_KEY
        assert activity.activity_key(netlist, 2048, 7) == \
            PINNED_ACTIVITY_KEY
        assert activity.activity_key(netlist, 4096, 7,
                                     state_patterns=100) == \
            PINNED_ROUNDED_ACTIVITY_KEY


class TestLegacySimKernelField:
    def test_config_ignores_it_and_still_rejects_unknowns(self,
                                                          tiny_config):
        assert ExperimentConfig.from_dict(
            _legacy_config(tiny_config)) == tiny_config
        assert "sim_kernel" not in tiny_config.to_dict()
        with pytest.raises(ExperimentError, match="sim_kernels"):
            ExperimentConfig.from_dict({"sim_kernels": "array"})

    def test_estimate_body_loads_with_the_same_key(self, tiny_config):
        body = {"schema_version": 2, "circuit": "t481",
                "library": "cntfet-generalized",
                "config": _legacy_config(tiny_config)}
        query = PowerQuery.from_dict(body)
        assert query.config == tiny_config
        assert query.query_key == PINNED_QUERY_KEY

    def test_sweep_store_record_warm_starts_an_engine(self, tiny_config,
                                                      tmp_path):
        path = tmp_path / "sweep.jsonl"
        spec = SweepSpec(circuits=("t481",),
                         libraries=("cntfet-generalized",),
                         n_patterns=(tiny_config.n_patterns,),
                         state_patterns=tiny_config.state_patterns)
        Session(tiny_config).sweep(spec, path)
        # Rewrite the store as a build with the knob would have.
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == 1
        for record in records:
            record["config"] = _legacy_config(tiny_config)
        path.write_text("".join(json.dumps(record) + "\n"
                                for record in records))
        record = records[0]
        assert record["task_key"] == PINNED_QUERY_KEY
        assert quote_from_record(record).query_key == PINNED_QUERY_KEY

        engine = Engine(Session(tiny_config), store=path)
        body = {"circuit": "t481", "library": "cntfet-generalized",
                "config": _legacy_config(tiny_config)}
        report = engine.estimate(PowerQuery.from_dict(body))
        assert report.cache_status == "hot"
        assert report.query_key == PINNED_QUERY_KEY
        assert engine.counters["results.store"] == 1
        assert engine.counters.get("results.cold", 0) == 0
