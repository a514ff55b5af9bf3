"""Golden timed path: the cycle-accurate model's results, pinned per case.

``tests/fixtures/timed_path_golden.json`` holds, for every case of a small
matrix over the timed Flow LUT (the Table II(B) sweep, the Table II(A)
load-balance policies, each architectural ablation, two DDR3 speed grades,
a deletion-and-drain migration) and for Figure 3's burst-group model, what
the simulation produced: the number of events executed, the final simulated
time, the throughput's ``repr``, the full ``report()`` and a sha256 over
every ``LookupOutcome``.  A change to the simulator, the memory model or the
timed methods of ``core`` that claims to leave the model alone must pass this
unregenerated.  Rewrite it only for a declared model change, with
``PYTHONPATH=src python tests/test_timed_path_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.core.harness import run_lookup_experiment
from repro.memory.controller import PagePolicy
from repro.memory.timing import DDR3_1066_187E, DDR3_1600
from repro.reporting.experiments import simulate_burst_groups
from repro.traffic.generators import descriptors_from_keys, match_rate_workload, random_flow_keys
from repro.traffic.patterns import bank_increment_patterns, random_hash_patterns

FIXTURE = Path(__file__).parent / "fixtures" / "timed_path_golden.json"
SEEDS = (3, 17)
QUERIES = 400
TABLE_ENTRIES = 1000
FIG3_BURSTS = (1, 2, 4, 8, 16, 24, 35)

# Case name -> (config overrides, query workload).  The "miss" workloads
# query a preloaded table at that miss rate; "random" / "bank_increment"
# are Table II(A)'s hash patterns on an empty table.
CASES = {
    "t2b_miss0": ({}, ("miss", 0.0)),
    "t2b_miss50": ({}, ("miss", 0.5)),
    "t2b_miss100": ({}, ("miss", 1.0)),
    "t2a_fixed25": ({"load_balance_policy": "fixed", "path_a_fraction": 0.25}, ("bank_increment",)),
    "t2a_hash": ({"load_balance_policy": "hash"}, ("random",)),
    "t2a_round_robin": ({"load_balance_policy": "round_robin"}, ("random",)),
    "t2a_adaptive": ({"load_balance_policy": "adaptive"}, ("miss", 0.5)),
    "closed_page": ({"page_policy": PagePolicy.CLOSED}, ("miss", 0.5)),
    "refresh_off": ({"refresh_enabled": False}, ("miss", 1.0)),
    "bank_select_off": ({"bank_select_enabled": False}, ("miss", 0.5)),
    # A 2048-entry table, so inserts share buckets and the Request Filter
    # holds lookups behind in-flight updates.
    "small_table": ({"num_flows": 2048}, ("miss", 1.0)),
    "request_filter_off": ({"num_flows": 2048, "request_filter_enabled": False}, ("miss", 1.0)),
    "burst_writes_off": ({"burst_writes_enabled": False}, ("miss", 0.5)),
    "max_outstanding_1": ({"controller_max_outstanding": 1}, ("miss", 0.5)),
    "ddr3_1066": ({"timing": DDR3_1066_187E}, ("miss", 0.5)),
    "t_rc_override": ({"timing": DDR3_1600.with_overrides(t_rc=DDR3_1600.t_rc + 9)}, ("miss", 0.5)),
    "migration_drain": ({}, ("migration",)),
}


def _outcome_digest(results) -> str:
    digest = hashlib.sha256()
    for outcome in results:
        row = (
            outcome.flow_id,
            outcome.hit,
            outcome.new_flow,
            outcome.stage.name,
            outcome.first_path,
            outcome.submit_ps,
            outcome.complete_ps,
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()


def run_case(name: str, seed: int) -> dict:
    overrides, workload = CASES[name]
    config = small_test_config(**overrides)
    lut = FlowLUT(config)
    kind = workload[0]
    if kind == "random":
        queries = random_hash_patterns(QUERIES, config, seed=seed)
    elif kind == "bank_increment":
        queries = bank_increment_patterns(QUERIES, config, seed=seed)
    else:
        table_keys = random_flow_keys(TABLE_ENTRIES, seed=seed)
        lut.preload([d.key_bytes for d in descriptors_from_keys(table_keys)])
        miss = workload[1] if kind == "miss" else 0.5
        queries = match_rate_workload(table_keys, QUERIES, 1.0 - miss, seed=seed + 1)
    result = run_lookup_experiment(lut, queries, input_rate_hz=100e6)
    if kind == "migration":
        # Migration away from this device: delete a slice of the live table
        # while nothing else is in flight, then drain the update writes.
        deleted = sum(lut.delete_flow(key) for _, key in lut.live_items()[:: 5])
        lut.drain()
        assert deleted
    return {
        "events_executed": lut.sim.events_executed,
        "now_ps": lut.sim.now,
        "throughput_mdesc_s": repr(result.throughput_mdesc_s),
        "report": lut.report(),
        "outcomes_sha256": _outcome_digest(lut.results),
    }


def run_fig3() -> dict:
    return {
        str(bursts): repr(simulate_burst_groups(DDR3_1066_187E, bursts))
        for bursts in FIG3_BURSTS
    }


def capture() -> dict:
    golden = {
        f"{name}/seed{seed}": run_case(name, seed) for name in sorted(CASES) for seed in SEEDS
    }
    golden["fig3_burst_groups"] = run_fig3()
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_timed_case_matches_the_golden_capture(golden, name, seed):
    # Through JSON and back, so tuples, enums' values and int keys compare
    # like the fixture.
    assert json.loads(json.dumps(run_case(name, seed))) == golden[f"{name}/seed{seed}"]


def test_fig3_burst_groups_match_the_golden_capture(golden):
    assert run_fig3() == golden["fig3_burst_groups"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
