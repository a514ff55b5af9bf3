"""Sharded batch fast-path execution layer.

One timed :class:`~repro.core.flow_lut.FlowLUT` models one device; this
package scales the reproduction out the way deployments do:

* :mod:`repro.engine.sharded` — :class:`ShardedFlowLUT`, hash-partitioning
  flow keys across ``N`` independent functional
  :class:`~repro.core.flow_lut.FlowTable` shards behind a batched
  ``process_batch`` API that merges outcome blocks and per-shard stats.
  There is one ingest body, over :class:`~repro.columns.DescriptorBlock`
  columnar batches; descriptor lists are packed into a block at the
  entrance.
* :mod:`repro.engine.runner` — replay any named workload scenario
  (:mod:`repro.traffic.scenarios`) through the sharded engine, through
  ``N`` cycle-accurate devices (``replay_timed`` / ``run_scenario_timed``,
  the simulated scaling figures) or through the single-LUT baseline, with
  scenario-scoped descriptor extraction and an optional telemetry
  pipeline riding the outcome batches.
"""

from repro.engine.runner import (
    ScenarioRunResult,
    replay_timed,
    run_all_scenarios_sharded,
    run_scenario_sharded,
    run_scenario_single,
    run_scenario_timed,
    sharded_vs_single,
)
from repro.engine.sharded import ShardedFlowLUT

__all__ = [
    "ScenarioRunResult",
    "ShardedFlowLUT",
    "replay_timed",
    "run_all_scenarios_sharded",
    "run_scenario_sharded",
    "run_scenario_single",
    "run_scenario_timed",
    "sharded_vs_single",
]
