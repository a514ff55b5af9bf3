"""Batched scenario execution: named workloads through the sharded engine.

Every scenario in :mod:`repro.traffic.scenarios` can be replayed through a
:class:`~repro.engine.sharded.ShardedFlowLUT`, through ``N`` cycle-accurate
devices, or through a single :class:`~repro.core.flow_lut.FlowLUT` (the
baseline) with one call.  The runner owns a scenario-scoped
:class:`~repro.net.parser.DescriptorExtractor`, so two back-to-back runs of
the same scenario and seed report identical stats — nothing bleeds across
runs through shared parser state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import FlowLUTConfig, small_test_config
from repro.core.flow_lut import FlowLUT
from repro.engine.sharded import ShardedFlowLUT
from repro.hashing.crc import CRC32
from repro.net.parser import DescriptorExtractor
from repro.sim.stats import busiest_over_mean
from repro.traffic.scenarios import list_scenarios, scenario_descriptors

DEFAULT_BATCH_SIZE = 512


@dataclass(frozen=True)
class ScenarioRunResult:
    """Aggregate accounting of one scenario replayed through the fast path."""

    scenario: str
    shards: int
    packets: int
    packets_parsed: int
    completed: int
    hits: int
    misses: int
    new_flows: int
    insert_failures: int
    elapsed_ps: int
    throughput_mdesc_s: float
    shard_completed: Tuple[int, ...]
    load_imbalance: float

    def totals(self) -> dict:
        """The outcome totals two execution paths must agree on."""
        return {
            "completed": self.completed,
            "hits": self.hits,
            "misses": self.misses,
            "new_flows": self.new_flows,
        }

    def as_row(self) -> dict:
        """A flat dict convenient for table printing."""
        return {
            "scenario": self.scenario,
            "shards": self.shards,
            "completed": self.completed,
            "hits": self.hits,
            "misses": self.misses,
            "new_flows": self.new_flows,
            "throughput_mdesc_s": round(self.throughput_mdesc_s, 2),
            "load_imbalance": round(self.load_imbalance, 3),
        }


def _summarise(
    name: str, packets: int, packets_parsed: int, devices: Sequence[FlowLUT]
) -> ScenarioRunResult:
    """Parallel devices as one result: totals add, the slowest sets the clock."""
    completed = tuple(lut.completed for lut in devices)
    total = sum(completed)
    elapsed_ps = max(lut.elapsed_ps for lut in devices)
    return ScenarioRunResult(
        scenario=name,
        shards=len(devices),
        packets=packets,
        packets_parsed=packets_parsed,
        completed=total,
        hits=sum(lut.hits for lut in devices),
        misses=sum(lut.misses for lut in devices),
        new_flows=sum(lut.new_flows for lut in devices),
        insert_failures=sum(lut.insert_failures for lut in devices),
        elapsed_ps=elapsed_ps,
        throughput_mdesc_s=total * 1e6 / elapsed_ps if elapsed_ps > 0 else 0.0,
        shard_completed=completed,
        load_imbalance=busiest_over_mean(completed),
    )


def run_scenario_sharded(
    name: str,
    packet_count: int,
    shards: int = 4,
    seed: int = 0,
    config: Optional[FlowLUTConfig] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    telemetry=None,
) -> ScenarioRunResult:
    """Replay a named scenario through a sharded engine in descriptor batches.

    The descriptor slices are packed into blocks by
    :meth:`ShardedFlowLUT.process_batch`, so ``elapsed_ps`` /
    ``throughput_mdesc_s`` here are the bulk probe's steady-state envelope;
    :func:`run_scenario_timed` gives the cycle-accurate figure.
    ``telemetry`` may be a :class:`~repro.telemetry.TelemetryPipeline`; it
    then rides the merged outcome batches (one ``observe_outcomes`` call per
    batch) rather than a per-packet callback.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    config = config or small_test_config()
    extractor = DescriptorExtractor()
    descriptors = scenario_descriptors(name, packet_count, seed=seed, extractor=extractor)
    on_batch = telemetry.observe_outcomes if telemetry is not None else None
    engine = ShardedFlowLUT(shards=shards, config=config, on_batch=on_batch)
    for offset in range(0, len(descriptors), batch_size):
        engine.process_batch(descriptors[offset : offset + batch_size])
    return _summarise(name, len(descriptors), extractor.packets_parsed, engine.shards)


def replay_timed(
    descriptors: Sequence, shards: int, config: FlowLUTConfig, batch_size: int
) -> List[FlowLUT]:
    """``descriptors`` through ``shards`` cycle-accurate Flow LUTs.

    Every ``batch_size`` slice of the stream is steered like
    :meth:`ShardedFlowLUT.shard_of` steers it (CRC-32 of the key), each
    device's share is submitted under backpressure, and the devices are
    then drained (in-flight lookups and batched updates) — the cadence a
    batched front end imposes on real devices.  The simulated multi-device
    figures of the scaling experiments come from here, because the ingest
    classes' own ``elapsed_ps`` follows the bulk probe's steady-state
    envelope.
    """
    devices = [FlowLUT(config) for _ in range(shards)]
    for offset in range(0, len(descriptors), batch_size):
        for descriptor in descriptors[offset : offset + batch_size]:
            devices[CRC32.hash(descriptor.key_bytes) % shards].submit_blocking(descriptor)
        for lut in devices:
            lut.drain()
    return devices


def run_scenario_timed(
    name: str,
    packet_count: int,
    shards: int = 4,
    seed: int = 0,
    config: Optional[FlowLUTConfig] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ScenarioRunResult:
    """The scenario through ``shards`` cycle-accurate devices (:func:`replay_timed`)."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    config = config or small_test_config()
    extractor = DescriptorExtractor()
    descriptors = scenario_descriptors(name, packet_count, seed=seed, extractor=extractor)
    devices = replay_timed(descriptors, shards, config, batch_size)
    return _summarise(name, len(descriptors), extractor.packets_parsed, devices)


def run_scenario_single(
    name: str,
    packet_count: int,
    seed: int = 0,
    config: Optional[FlowLUTConfig] = None,
) -> ScenarioRunResult:
    """The baseline: the same scenario through one per-packet Flow LUT,
    submitted back to back and drained once."""
    return run_scenario_timed(
        name, packet_count, shards=1, seed=seed, config=config, batch_size=max(1, packet_count)
    )


def sharded_vs_single(
    name: str,
    packet_count: int,
    shards: int = 4,
    seed: int = 0,
    config: Optional[FlowLUTConfig] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> dict:
    """Run both execution paths on the same workload and compare totals.

    Sharding by flow key keeps every flow on one shard, so as long as neither
    path hits an insertion failure, the aggregate hit / miss / new-flow totals
    must match exactly.
    """
    sharded = run_scenario_sharded(
        name, packet_count, shards=shards, seed=seed, config=config, batch_size=batch_size
    )
    single = run_scenario_single(name, packet_count, seed=seed, config=config)
    return {
        "scenario": name,
        "sharded": sharded,
        "single": single,
        "equivalent": sharded.totals() == single.totals(),
    }


def run_all_scenarios_sharded(
    packet_count: int,
    shards: int = 4,
    seed: int = 0,
    config: Optional[FlowLUTConfig] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    names: Optional[Sequence[str]] = None,
) -> List[ScenarioRunResult]:
    """Every named scenario through the sharded engine, one result each."""
    return [
        run_scenario_sharded(
            name, packet_count, shards=shards, seed=seed, config=config, batch_size=batch_size
        )
        for name in (names if names is not None else list_scenarios())
    ]
