"""Experiment driving: descriptor sources and rate measurement.

The paper measures "the worst-case average processing rate for 10 thousand
inputs ... by adjusting the input data rate in the range between 60 MHz and
100 MHz" (Section V-A).  :class:`DescriptorSource` reproduces that setup: it
offers descriptors to the Flow LUT at a configured input rate and retries on
backpressure, so the measured completion rate reflects what the architecture
can actually sustain rather than the offered load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.flow_lut import FlowLUT


@dataclass
class ExperimentResult:
    """Summary of one lookup-rate experiment."""

    descriptors_offered: int
    completed: int
    duration_ps: int
    throughput_mdesc_s: float
    offered_rate_mhz: float
    hit_rate: float
    miss_rate: float
    new_flows: int
    path_a_load: float
    mean_latency_ns: float
    max_latency_ns: float
    report: dict = field(default_factory=dict, repr=False)

    def as_row(self) -> dict:
        """A flat dict convenient for table printing."""
        return {
            "offered_mhz": round(self.offered_rate_mhz, 2),
            "throughput_mdesc_s": round(self.throughput_mdesc_s, 2),
            "miss_rate": round(self.miss_rate, 4),
            "path_a_load": round(self.path_a_load, 4),
            "mean_latency_ns": round(self.mean_latency_ns, 1),
        }


class DescriptorSource:
    """Feeds descriptors to a Flow LUT at a fixed input rate.

    Parameters
    ----------
    flow_lut: the device under test (its simulator is used for scheduling).
    descriptors: the descriptor sequence to offer, in order.
    rate_hz: input data rate; one descriptor is offered every ``1/rate_hz``.
        When the Flow LUT input queue is full the offer is retried every
        system clock cycle until accepted (backpressure).
    """

    def __init__(self, flow_lut: FlowLUT, descriptors: Sequence, rate_hz: float = 100e6) -> None:
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        self.flow_lut = flow_lut
        self.descriptors = list(descriptors)
        self.rate_hz = rate_hz
        self.interval_ps = max(1, int(round(1e12 / rate_hz)))
        self.retry_ps = flow_lut.config.system_clock_period_ps
        self._index = 0
        self.offered = 0
        self.retries = 0
        self.started = False
        self.finished_ps: Optional[int] = None

    @property
    def done(self) -> bool:
        return self._index >= len(self.descriptors)

    def start(self) -> None:
        """Begin offering descriptors at the current simulation time."""
        if self.started:
            raise RuntimeError("source already started")
        self.started = True
        if self.descriptors:
            self.flow_lut.sim.schedule(0, self._tick)
        else:
            self.finished_ps = self.flow_lut.sim.now

    def _tick(self) -> None:
        index = self._index
        if index >= len(self.descriptors):
            return
        flow_lut = self.flow_lut
        if flow_lut.submit(self.descriptors[index]):
            self.offered += 1
            self._index = index + 1
            if self.done:
                self.finished_ps = flow_lut.sim.now
                return
            flow_lut.sim.schedule(self.interval_ps, self._tick)
        else:
            self.retries += 1
            flow_lut.sim.schedule(self.retry_ps, self._tick)


def run_lookup_experiment(
    flow_lut: FlowLUT,
    descriptors: Sequence,
    input_rate_hz: float = 100e6,
    include_report: bool = False,
) -> ExperimentResult:
    """Offer ``descriptors`` at ``input_rate_hz`` and measure the processing rate.

    The Flow LUT is drained completely (including batched updates) before the
    rate is computed, so the result reflects end-to-end work, exactly like the
    paper's "average processing rate" rows in Table II.
    """
    source = DescriptorSource(flow_lut, descriptors, rate_hz=input_rate_hz)
    source.start()
    flow_lut.drain()

    completed = flow_lut.completed
    duration = flow_lut.elapsed_ps
    throughput = completed * 1e6 / duration if duration > 0 else 0.0
    hit_rate = flow_lut.hits / completed if completed else 0.0

    return ExperimentResult(
        descriptors_offered=source.offered,
        completed=completed,
        duration_ps=duration,
        throughput_mdesc_s=throughput,
        offered_rate_mhz=input_rate_hz / 1e6,
        hit_rate=hit_rate,
        miss_rate=flow_lut.miss_rate,
        new_flows=flow_lut.new_flows,
        path_a_load=flow_lut.sequencer.path_a_load,
        mean_latency_ns=flow_lut.latency.mean / 1000.0,
        max_latency_ns=(flow_lut.latency.maximum / 1000.0) if flow_lut.latency.count else 0.0,
        report=flow_lut.report() if include_report else {},
    )


def sweep_input_rates(
    make_flow_lut,
    descriptors: Sequence,
    rates_hz: Sequence[float],
) -> List[ExperimentResult]:
    """Run the same workload at several input rates (fresh Flow LUT each time).

    ``make_flow_lut`` is a zero-argument factory; the paper's "worst-case
    average processing rate" is the minimum throughput across the sweep.
    """
    results = []
    for rate in rates_hz:
        flow_lut = make_flow_lut()
        results.append(run_lookup_experiment(flow_lut, descriptors, input_rate_hz=rate))
    return results


def worst_case_rate(results: Sequence[ExperimentResult]) -> ExperimentResult:
    """The paper's reported figure: the sweep entry with the lowest throughput."""
    if not results:
        raise ValueError("no experiment results supplied")
    return min(results, key=lambda result: result.throughput_mdesc_s)
