"""The five pipeline workloads: inputs, one repetition's driven loop, checks.

Every workload is a closed loop on one driver thread: the next call is made
when the previous one returns.  ``--seed`` seeds the traffic generators and
the program receives only the generated inputs.  Sizes are fixed per
workload (``--scale`` exists for the smoke test only and labels its output).

A repetition is *build fresh objects* (untimed) then *drive*: ingest →
report → recover, each phase timed on the host clock by the driver.  The
output checks run on every repetition against reference computations made
here from the generated inputs, never from the program's own counters alone.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster import ClusterControl, ClusterCoordinator, RebalancePolicy
from repro.columns.block import DescriptorBlock
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.core.harness import run_lookup_experiment
from repro.obs import Observability
from repro.persist import dump_flow_lut, restore_flow_lut
from repro.reporting.experiments import exact_top_k
from repro.traffic.generators import (
    descriptors_from_keys,
    match_rate_workload,
    random_flow_keys,
)
from repro.traffic.scenarios import scenario_block

from pipebench import layers
from pipebench.tracing import NullTracer

NODES = 4
TOP_K = 10
LINE_RATE_40GBE_MPPS = 59.52  # the paper's 40 GbE requirement (Section V-B)
REPORT_READINGS = 21
_CLOCK = time.perf_counter_ns


@dataclass
class Repetition:
    """What one driven repetition measured and what its checks found."""

    offered: int
    ingest_ns: int
    segment_ns: List[int]
    report_ns: int
    recover_ns: int  # join + failover (paper: snapshot + warm restart)
    sim_mdesc_s: float
    failed_ops: int
    failures: List[str]
    # Counts and state read off the objects once the loop has ended; the
    # traced run reports them as per-layer metrics.
    layer: Dict[str, float] = field(default_factory=dict)


def _read_answer(read):
    """A pure, sub-millisecond report read ``REPORT_READINGS`` times:
    ``(answer, median wall in ns)`` — one reading would be mostly timer noise."""
    walls = []
    for _ in range(REPORT_READINGS):
        start = _CLOCK()
        answer = read()
        walls.append(_CLOCK() - start)
    return answer, sorted(walls)[REPORT_READINGS // 2]


def _scaled(value: int, scale: float, floor: int) -> int:
    return value if scale == 1.0 else max(floor, int(value * scale))


def _later(block: DescriptorBlock, delta_ps: int) -> DescriptorBlock:
    """The same rows, ``delta_ps`` later (both column backends)."""
    stamps = block.timestamps
    if isinstance(stamps, array):
        shifted = array("q", (stamp + delta_ps for stamp in stamps))
    else:
        shifted = stamps + delta_ps
    return DescriptorBlock(
        block.key_data, block.lengths, shifted, block.flags, key_width=block.key_width
    )


@dataclass
class ClusterRig:
    coordinator: ClusterCoordinator
    control: Optional[ClusterControl]


class ClusterWorkload:
    """A scenario block fed in segments to a four-node cluster.

    Subclasses are data: they pick the scenario, the sizes and which planes
    (telemetry, replication, obs + control + checkpoints) are switched on.
    """

    name = ""
    why = ""
    scenario = ""
    rows = 0
    segment_rows = 0
    passes = 1
    telemetry = False
    replication = 1
    # obs plane + control loop + checkpoints + membership changes mid-run
    control_plane = False

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.rows = _scaled(self.rows, scale, 64)
        self.segment_rows = _scaled(self.segment_rows, scale, 16)
        self.warm_rows = min(self.rows, _scaled(1024, scale, 32))
        self.block: Optional[DescriptorBlock] = None
        self.segments: List[Tuple[int, DescriptorBlock]] = []
        self.exact_top: List[Tuple[bytes, int]] = []  # (packed key, bytes)
        self.generate_s = 0.0
        self.window_ps = 1

    @property
    def sizes(self) -> dict:
        return {
            "scenario": self.scenario,
            "rows": self.rows,
            "passes": self.passes,
            "segment_rows": self.segment_rows,
            "nodes": NODES,
            "telemetry": self.telemetry,
            "replication": self.replication,
            "control_plane": self.control_plane,
        }

    # ------------------------------------------------------------- set-up
    def setup(self) -> None:
        """Generate traffic, construct, and warm the code paths once."""
        start = time.perf_counter()
        block = scenario_block(self.scenario, self.rows, seed=self.seed)
        duration = int(block.timestamps[self.rows - 1]) - int(block.timestamps[0])
        segments = []
        for index in range(self.passes):
            # Later passes replay the same keys after the first pass ended.
            replay = block if index == 0 else _later(block, index * (duration + 1_000_000))
            for offset in range(0, self.rows, self.segment_rows):
                segments.append(
                    (index, replay.slice_rows(offset, offset + self.segment_rows))
                )
        self.generate_s = time.perf_counter() - start
        self.block = block
        self.segments = segments
        self.window_ps = max(1, duration // 16)
        if self.telemetry:
            # The reference the merged view is held to: an exact byte tally
            # of the generated rows, same tie-break as the merged top-k.
            self.exact_top = exact_top_k(block.to_descriptors(), TOP_K)
        rig = self.build()
        rig.coordinator.ingest(block.slice_rows(0, self.warm_rows))
        if rig.control is not None:
            rig.control.step()

    def build(self, obs: bool = True, executor="off") -> ClusterRig:
        """Fresh objects for one repetition (``obs=False``: the same fleet
        without the obs plane, and so without the control loop riding it)."""
        plane = None
        if self.control_plane and obs:
            plane = Observability(
                window_ps=self.window_ps, span_sample_every=16, alerts=True
            )
        coordinator = ClusterCoordinator(
            nodes=NODES,
            telemetry=self.telemetry,
            telemetry_seed=self.seed,
            replication=self.replication,
            checkpoint_interval=max(1, self.rows // 64) if self.control_plane else None,
            obs=plane,
            executor=executor,
        )
        control = None
        if plane is not None:
            control = ClusterControl(coordinator, rebalance=RebalancePolicy())
        return ClusterRig(coordinator, control)

    # -------------------------------------------------------------- drive
    def run(self, rig: ClusterRig, tracer: NullTracer = NullTracer()) -> Repetition:
        with tracer.patched_classes(), tracer.span("driver"):
            return self._drive(rig, tracer)

    def _drive(self, rig: ClusterRig, tracer: NullTracer) -> Repetition:
        coordinator, control = rig.coordinator, rig.control
        tracer.instrument_cluster(coordinator, control)
        segment_ns: List[int] = []
        pass_ns = [0] * self.passes
        step_ns = 0
        join = failure = None
        recover_ns = 0
        lost_inserts = 0
        count = len(self.segments)
        for index, (pass_index, segment) in enumerate(self.segments):
            tracer.segment = index
            start = _CLOCK()
            coordinator.ingest(segment)
            ingested = _CLOCK()
            segment_ns.append(ingested - start)
            pass_ns[pass_index] += ingested - start
            if control is not None:
                control.step()
                step_ns += _CLOCK() - ingested
            if self.control_plane:
                if index + 1 == count // 2:
                    join, join_ns = self._join(coordinator, tracer)
                    recover_ns += join_ns
                elif index + 1 == (3 * count) // 4:
                    failure, fail_ns, dead = self._fail(coordinator)
                    lost_inserts += dead
                    recover_ns += fail_ns
        tracer.segment = None
        ingest_ns = sum(segment_ns) + step_ns
        offered = self.rows * self.passes
        layer = self._read_layers(rig, pass_ns)
        failures: List[str] = []

        # Report: last ingest -> answer.
        start = _CLOCK()
        coordinator.finalize_telemetry()
        if self.telemetry:
            merged = coordinator.merged_telemetry()
            top = merged.top_talkers(TOP_K)
            merged.superspreaders()
            syn_flood = merged.syn_flood_detected
            report_ns = _CLOCK() - start
            failures += self._check_telemetry(merged, top, syn_flood, layer)
            books = coordinator.flow_books()
            totals = coordinator.cluster_totals()
        else:
            if control is not None:
                control.step()
                coordinator.prometheus_text()  # an observed fleet is scraped
            report_ns = _CLOCK() - start
            answer, read_ns = _read_answer(coordinator.report)
            report_ns += read_ns
            books = answer["flow_books"]
            totals = answer["cluster_totals"]

        if not self.control_plane:
            # Recover: a node joins, then the most active node dies.
            join, join_ns = self._join(coordinator, tracer)
            failure, fail_ns, dead = self._fail(coordinator)
            lost_inserts += dead
            recover_ns = join_ns + fail_ns
            books = coordinator.flow_books()

        completed = totals["completed"]
        inserts_failed = lost_inserts + sum(
            node.insert_failures for node in coordinator.nodes.values()
        )
        imbalance = abs(
            books["flows_created"]
            - (books["live"] + books["exported"] + books["folded"] + books["flows_lost"])
        )
        if not books["balanced"]:
            failures.append(f"flow books do not balance: {books}")
        if completed != offered:
            failures.append(f"completed {completed} != offered {offered}")
        if totals["hits"] + totals["misses"] != completed:
            failures.append(f"hits + misses != completed: {totals}")
        if join is None or join["migrated"] <= 0 or join["lost"] != 0:
            failures.append(f"join must migrate flows and lose none: {join}")
        if failure is None:
            failures.append("no failover was driven")
        failures += self._check_workload(rig, totals, inserts_failed)
        layer["cluster.control.actions"] = len(control.actions) if control else 0
        layer["cluster.control.flows_moved"] = control.flows_moved if control else 0
        return Repetition(
            offered=offered,
            ingest_ns=ingest_ns,
            segment_ns=segment_ns,
            report_ns=report_ns,
            recover_ns=recover_ns,
            sim_mdesc_s=layer["cluster.sim_mdesc_s"],
            failed_ops=(offered - completed) + inserts_failed + imbalance,
            failures=failures,
            layer=layer,
        )

    def _join(self, coordinator, tracer) -> Tuple[dict, int]:
        start = _CLOCK()
        event = coordinator.add_node("joiner")
        elapsed = _CLOCK() - start
        tracer.instrument_node(coordinator.nodes["joiner"])
        return event, elapsed

    def _fail(self, coordinator) -> Tuple[dict, int, int]:
        nodes = coordinator.nodes
        victim = max(nodes, key=lambda node_id: (nodes[node_id].completed, node_id))
        dead_inserts = nodes[victim].insert_failures
        start = _CLOCK()
        event = coordinator.fail_node(victim)
        return event, _CLOCK() - start, dead_inserts

    def _read_layers(self, rig: ClusterRig, pass_ns: List[int]) -> dict:
        coordinator = rig.coordinator
        busy = list(coordinator.parallel_report()["per_node_busy_ns"].values())
        layer = {
            "cluster.sim_mdesc_s": coordinator.throughput_mdesc_s,
            "cluster.coordinator.checkpoints": coordinator.checkpoints_taken,
            "cluster.node.busy_skew": max(busy) * len(busy) / sum(busy) if sum(busy) else 0.0,
            "telemetry.space_saving_evictions": sum(
                node.pipeline.heavy_hitters.evictions
                for node in coordinator.nodes.values()
                if node.pipeline is not None
            ),
        }
        obs = coordinator.obs
        if obs is not None:
            layer["obs.spans_recorded"] = len(obs.spans.spans)
            layer["obs.windows_closed"] = len(obs.windows.windows)
            layer["obs.journal_events"] = len(obs.journal)
        if self.passes > 1:
            layer["engine.insert_pass_kdesc_s"] = self.rows * 1e6 / pass_ns[0]
            layer["engine.hit_pass_kdesc_s"] = (
                self.rows * (self.passes - 1) * 1e6 / sum(pass_ns[1:])
            )
        return layer

    def standalone_metrics(self, rig: ClusterRig) -> Dict[str, float]:
        """What spans cannot give (see :mod:`pipebench.layers`), measured
        after the traced repetitions on the last one's final state."""
        metrics = {
            "traffic.generate_s": self.generate_s,
            "traffic.rows": self.rows,
            "telemetry.distinct_keys_per_block": layers.distinct_keys_per_block(self.block),
            "cluster.coordinator.object_ingest_kdesc_s": layers.object_ingest_kdesc_s(self),
            **layers.node_state_metrics(rig.coordinator),
        }
        if self.telemetry:
            metrics.update(layers.telemetry_micro(self.block, 4 * self.warm_rows, self.seed))
        return metrics

    # ------------------------------------------------------------- checks
    def _check_telemetry(self, merged, top, syn_flood, layer) -> List[str]:
        failures = []
        found = {hitter.key for hitter in top}
        recall = sum(1 for key, _ in self.exact_top if key in found) / len(self.exact_top)
        layer["telemetry.hh_recall_at_10"] = recall
        for key, total in self.exact_top:
            if merged.byte_counts.estimate(key) < total:
                failures.append(f"Count-Min estimate under the exact byte count for {key.hex()}")
        if merged.packets != self.rows:
            failures.append(f"merged telemetry saw {merged.packets} of {self.rows} packets")
        if syn_flood:
            failures.append("SYN flood flagged on traffic that carries none")
        return failures

    def _check_workload(self, rig, totals, inserts_failed) -> List[str]:
        return []


class FullZipfK2(ClusterWorkload):
    name = "full_zipf_k2"
    why = (
        "headline collector path: zipf_mix through 4 nodes with telemetry and "
        "k=2 replication, so telemetry and backup re-observation carry the wall"
    )
    scenario = "zipf_mix"
    rows = 4096
    segment_rows = 512
    telemetry = True
    replication = 2

    def _check_workload(self, rig, totals, inserts_failed):
        failures = []
        coordinator = rig.coordinator
        if coordinator.replicated_packets != self.rows:
            failures.append(
                f"replicated_packets {coordinator.replicated_packets} != offered {self.rows}"
            )
        return failures

    def _check_telemetry(self, merged, top, syn_flood, layer):
        failures = super()._check_telemetry(merged, top, syn_flood, layer)
        if layer["telemetry.hh_recall_at_10"] < 0.9:
            failures.append(f"recall@10 {layer['telemetry.hh_recall_at_10']} < 0.9")
        return failures


class TelemetryUniform(ClusterWorkload):
    name = "telemetry_uniform"
    why = (
        "same telemetry layer, no sharing: every key distinct, sketch tables "
        "evict on every row, so a block-aggregation gain that costs "
        "all-distinct traffic shows here"
    )
    scenario = "uniform_random"
    rows = 4096
    segment_rows = 512
    telemetry = True


class LookupUniform(ClusterWorkload):
    name = "lookup_uniform"
    why = (
        "telemetry off: distinct keys inserted once (all miss) then replayed "
        "three times (all hit); steer/hash/probe/flow-state do all the work, "
        "the bypass workload for telemetry changes"
    )
    scenario = "uniform_random"
    rows = 16384
    segment_rows = 2048
    passes = 4

    def standalone_metrics(self, rig):
        # Reported only: the lookup-only workload is where a pooled executor
        # has the most to gain, so it is where the executors are compared.
        return {**super().standalone_metrics(rig), **layers.parallel_wall_ratios(self)}

    def _check_workload(self, rig, totals, inserts_failed):
        failures = []
        if totals["misses"] != self.rows or totals["new_flows"] != self.rows:
            failures.append(f"pass 1 must be all misses that insert: {totals}")
        if totals["hits"] != self.rows * (self.passes - 1):
            failures.append(f"passes 2-{self.passes} must be all hits: {totals}")
        if inserts_failed:
            failures.append(f"insert_failures {inserts_failed} != 0")
        return failures


class ControlPlaneHotspot(ClusterWorkload):
    name = "control_plane_hotspot"
    why = (
        "hotspot_shift with obs windows, spans, alerts, the rebalance loop, "
        "checkpoints, a join at 50% and a failover at 75%: the control plane "
        "is about half the wall here and idle elsewhere"
    )
    scenario = "hotspot_shift"
    rows = 65536
    segment_rows = 2048
    control_plane = True

    def _check_workload(self, rig, totals, inserts_failed):
        if rig.control is not None and not rig.control.actions:
            return ["the control loop took no action on a moving hotspot"]
        return []


class PaperTable2bTimed:
    """The paper's Table II(B) experiment on the cycle-accurate path."""

    name = "paper_table2b_timed"
    why = (
        "the paper's experiment on the cycle-accurate path: core/sim/memory "
        "do all the work and the columnar path is bypassed entirely"
    )
    table_entries = 10_000
    queries = 2000
    miss_rates = (1.0, 0.5, 0.0)
    input_rate_hz = 100e6
    control_plane = False

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.table_entries = _scaled(self.table_entries, scale, 1000)
        self.queries = _scaled(self.queries, scale, 200)
        self.warm_rows = min(self.queries, _scaled(256, scale, 32))
        self.table_keys: List[bytes] = []
        self.workloads: Dict[float, list] = {}
        self.generate_s = 0.0

    @property
    def sizes(self) -> dict:
        return {
            "table_entries": self.table_entries,
            "queries_per_sweep": self.queries,
            "miss_rates": list(self.miss_rates),
            "input_rate_hz": self.input_rate_hz,
        }

    def setup(self) -> None:
        start = time.perf_counter()
        keys = random_flow_keys(self.table_entries, seed=self.seed)
        self.table_keys = [d.key_bytes for d in descriptors_from_keys(keys)]
        self.workloads = {
            miss: match_rate_workload(
                keys, self.queries, match_fraction=1.0 - miss, seed=self.seed + 1
            )
            for miss in self.miss_rates
        }
        self.generate_s = time.perf_counter() - start
        lut = self._preloaded()
        run_lookup_experiment(lut, self.workloads[0.5][: self.warm_rows], self.input_rate_hz)

    def standalone_metrics(self, luts) -> Dict[str, float]:
        return {
            "traffic.generate_s": self.generate_s,
            "traffic.rows": self.queries * len(self.miss_rates),
        }

    def _preloaded(self) -> FlowLUT:
        lut = FlowLUT(small_test_config())
        lut.preload(self.table_keys)
        return lut

    def build(self) -> Dict[float, FlowLUT]:
        """A freshly preloaded table per sweep, keyed by miss rate."""
        return {miss: self._preloaded() for miss in self.miss_rates}

    def run(self, luts: Dict[float, FlowLUT], tracer: NullTracer = NullTracer()) -> Repetition:
        with tracer.span("driver"):
            return self._drive(luts, tracer)

    def _drive(self, luts: Dict[float, FlowLUT], tracer: NullTracer) -> Repetition:
        segment_ns: List[int] = []
        results = {}
        for index, miss in enumerate(self.miss_rates):
            lut = luts[miss]
            tracer.instrument_flow_lut(lut)
            tracer.segment = index
            start = _CLOCK()
            with tracer.span("core.run_lookup_experiment"):
                results[miss] = run_lookup_experiment(
                    lut, self.workloads[miss], self.input_rate_hz
                )
            segment_ns.append(_CLOCK() - start)
        tracer.segment = None

        reports, report_ns = _read_answer(
            lambda: {miss: lut.report() for miss, lut in luts.items()}
        )

        # Recover: warm-restart the half-miss table from its own snapshot.
        start = _CLOCK()
        with tracer.span("persist.dump_flow_lut"):
            frame = dump_flow_lut(luts[0.5])
        with tracer.span("persist.restore_flow_lut"):
            restored = restore_flow_lut(FlowLUT(small_test_config()), frame)
        recover_ns = _CLOCK() - start

        offered = self.queries * len(self.miss_rates)
        completed = sum(result.completed for result in results.values())
        inserts_failed = sum(report["insert_failures"] for report in reports.values())
        failures = []
        rates = [results[miss].throughput_mdesc_s for miss in self.miss_rates]
        if rates != sorted(rates):
            failures.append(f"rate must rise as the miss rate falls: {rates}")
        if results[0.5].throughput_mdesc_s <= LINE_RATE_40GBE_MPPS:
            failures.append(f"50% row {results[0.5].throughput_mdesc_s} <= 59.52 Mdesc/s")
        for miss, result in results.items():
            if abs(result.miss_rate - miss) > 0.01:
                failures.append(f"measured miss rate {result.miss_rate} is off target {miss}")
            if result.completed != self.queries:
                failures.append(f"sweep {miss}: completed {result.completed} of {self.queries}")
            if reports[miss]["hits"] + reports[miss]["misses"] != result.completed:
                failures.append(f"sweep {miss}: hits + misses != completed")
        live = self.table_entries + results[0.5].new_flows
        if restored != live:
            failures.append(f"warm restart installed {restored} of {live} flows")
        events = sum(lut.sim.events_executed for lut in luts.values())
        layer = {
            "core.sim_events": events,
            "core.host_us_per_sim_event": sum(segment_ns) / 1e3 / events,
            "core.sim_mdesc_s_miss0": results[0.0].throughput_mdesc_s,
            "core.sim_mdesc_s_miss50": results[0.5].throughput_mdesc_s,
            "core.sim_mdesc_s_miss100": results[1.0].throughput_mdesc_s,
            "core.sim_latency_ns_mean": results[0.5].mean_latency_ns,
        }
        return Repetition(
            offered=offered,
            ingest_ns=sum(segment_ns),
            segment_ns=segment_ns,
            report_ns=report_ns,
            recover_ns=recover_ns,
            sim_mdesc_s=results[0.5].throughput_mdesc_s,
            failed_ops=(offered - completed) + inserts_failed,
            failures=failures,
            layer=layer,
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        FullZipfK2,
        TelemetryUniform,
        LookupUniform,
        ControlPlaneHotspot,
        PaperTable2bTimed,
    )
}
