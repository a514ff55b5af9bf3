"""The cluster's closed control loop: adaptive rebalancing and autoscaling.

PR 8 gave the fleet eyes — tumbling windows over the simulated clock and
watchdog rules that fire at a hotspot's onset window — but nothing *acted*
on what they saw: the fleet stayed static, however skewed the traffic.
This module closes the loop.  A :class:`ClusterControl` rides a
:class:`~repro.cluster.coordinator.ClusterCoordinator`'s windowed registry
and, between ingest segments, lets two policies act on the windows that
closed since the last step:

:class:`RebalancePolicy`
    Restores per-node load balance inside a fixed fleet.  The signal is the
    **windowed** load imbalance (busiest node's window load over the mean —
    the time-resolved figure, because a lifetime average dilutes a mid-run
    hotspot into invisibility).  The lever depends on the diagnosis:

    * *Traffic skew* — the hot node's observed share far exceeds its ring
      arc share, i.e. a few elephant flows concentrate the stream.  Weight
      changes cannot split a single key's traffic, so the policy pins the
      hot flows (by per-flow window deltas) onto the least-loaded nodes:
      :meth:`ClusterCoordinator.pin_flows` migrates their live state and
      overrides the ring for subsequent packets.
    * *Ring unevenness* — the hot node is simply serving too large an arc.
      The policy shifts vnode weight (:meth:`ClusterCoordinator.
      set_node_weight`), shrinking the hot node's arcs or growing the
      coldest node's, and the placement reconciliation migrates exactly
      the flows whose arcs moved.

    Acting is gated by a hysteresis band (engage above ``engage``, keep
    correcting until below ``release``), a ``for_windows`` streak, a
    ``cooldown_windows`` refractory period, and a ``min_window_packets``
    floor — windows too small to judge never trigger migrations.

:class:`AutoscalePolicy`
    Changes the fleet size.  Sustained per-node load above the provisioning
    target adds a member (:meth:`ClusterCoordinator.add_node` — live flows
    in the new arcs follow automatically); sustained load far below it
    retires the least-loaded member gracefully (:meth:`ClusterCoordinator.
    remove_node` — flows and undrained exports hand over, nothing is
    lost).  The same streak/cooldown gates prevent flapping, and
    ``min_nodes``/``max_nodes`` bound the fleet.

Both policies reuse the membership/migration machinery that PRs 3–4
correctness-locked, so every action preserves the conservation identity
``created == live + exported + folded + lost`` and the merged top-k —
``tests/test_control.py`` holds a policy-driven run bit-identical to the
static fleet on those figures.

The loop is deliberately **pulled**, not pushed: window closes only queue
snapshots, and :meth:`ClusterControl.step` — called by the driver between
ingest segments — applies actions.  Acting inside the ``on_close``
callback would mutate membership in the middle of an ingest segment's
barrier, under the very iteration that is crediting the window.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.load_signal import window_node_loads
from repro.obs.windows import WindowSnapshot
from repro.sim.stats import busiest_over_mean


@dataclass(frozen=True)
class RebalancePolicy:
    """Knobs of the in-fleet rebalancing lever.

    The hysteresis band straddles the scenario library's calibration (see
    :func:`~repro.obs.alerts.default_cluster_rules`): steady-state
    ``zipf_mix`` sits at a windowed imbalance <= 1.7 on a 5-node ring while
    the ``hotspot_shift`` second half exceeds 2.0, so ``engage = 1.8``
    separates them with margin and the policy stays quiet on healthy skew.
    Once engaged it keeps correcting until the imbalance drops below
    ``release`` — a single threshold would either act on steady state or
    stall just above it.
    """

    engage: float = 1.8
    release: float = 1.45
    for_windows: int = 1
    cooldown_windows: int = 1
    min_window_packets: int = 256
    # A flow is "hot" when its window delta exceeds this share of the
    # window's total traffic; the skew diagnosis pins such flows.
    hot_flow_share: float = 0.02
    max_pins_per_action: int = 16
    # The unevenness diagnosis shifts this much vnode weight per action,
    # bounded to [min_weight, max_weight].
    weight_step: int = 1
    min_weight: int = 1
    max_weight: int = 4
    # Observed share > skew_ratio x expected arc share reads as traffic
    # skew (pin flows); below it as ring unevenness (shift weight).
    skew_ratio: float = 1.5

    def __post_init__(self) -> None:
        if not self.engage > self.release > 1.0:
            raise ValueError("need engage > release > 1.0 (a hysteresis band)")
        if self.for_windows < 1 or self.cooldown_windows < 0:
            raise ValueError("for_windows must be >= 1 and cooldown_windows >= 0")
        if self.min_window_packets < 0:
            raise ValueError("min_window_packets must be non-negative")
        if not 0.0 < self.hot_flow_share < 1.0:
            raise ValueError("hot_flow_share must be in (0, 1)")
        if self.max_pins_per_action < 1:
            raise ValueError("max_pins_per_action must be >= 1")
        if not 1 <= self.min_weight <= self.max_weight:
            raise ValueError("need 1 <= min_weight <= max_weight")
        if self.weight_step < 1:
            raise ValueError("weight_step must be >= 1")
        if self.skew_ratio <= 1.0:
            raise ValueError("skew_ratio must exceed 1.0")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs of the fleet-size lever.

    ``target_node_packets`` is the provisioning target: the per-node window
    load the operator sized a member for.  There is no universal default —
    it is the one knob that encodes capacity — so it is required.  The
    up/down ratios form the do-nothing band: mean load above ``target x
    scale_up_ratio`` for ``for_windows`` consecutive windows grows the
    fleet, below ``target x scale_down_ratio`` shrinks it; the wide gap
    between the ratios (not a symmetric band) is what keeps a just-added
    node from being retired the moment the load per node drops.
    """

    target_node_packets: float
    scale_up_ratio: float = 1.25
    scale_down_ratio: float = 0.35
    for_windows: int = 2
    cooldown_windows: int = 2
    min_nodes: int = 2
    max_nodes: int = 16
    node_prefix: str = "auto"

    def __post_init__(self) -> None:
        if self.target_node_packets <= 0:
            raise ValueError("target_node_packets must be positive")
        if not 0.0 < self.scale_down_ratio < 1.0 <= self.scale_up_ratio:
            raise ValueError("need 0 < scale_down_ratio < 1.0 <= scale_up_ratio")
        if self.for_windows < 1 or self.cooldown_windows < 0:
            raise ValueError("for_windows must be >= 1 and cooldown_windows >= 0")
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if not self.node_prefix:
            raise ValueError("node_prefix must be non-empty")


@dataclass(frozen=True)
class ControlAction:
    """One action the control loop took, tagged with its trigger window."""

    kind: str  # "pin" | "reweight" | "add_node" | "remove_node"
    window: int
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


class ClusterControl:
    """Drives the policies from a coordinator's windowed registry.

    Construction subscribes to window closes (snapshots are queued, never
    acted on inline); the driver calls :meth:`step` between ingest segments
    to apply whatever the closed windows call for.  Requires the
    coordinator's obs plane to carry a windowed registry — the whole point
    is reacting to *windowed* signals, not lifetime averages.
    """

    def __init__(
        self,
        coordinator,
        rebalance: Optional[RebalancePolicy] = None,
        autoscale: Optional[AutoscalePolicy] = None,
    ) -> None:
        if rebalance is None and autoscale is None:
            raise ValueError("at least one policy (rebalance/autoscale) is required")
        obs = coordinator.obs
        if obs is None or obs.windows is None:
            raise RuntimeError(
                "the control loop needs windowed obs: build the coordinator "
                "with an Observability carrying window_ps="
            )
        self.coordinator = coordinator
        self.rebalance = rebalance
        self.autoscale = autoscale
        self.windows = obs.windows
        self._pending: List[WindowSnapshot] = []
        self.windows.on_close(self._queue_window)
        self.actions: List[ControlAction] = []
        self.windows_seen = 0
        self.flows_moved = 0
        self.flows_lost = 0
        # Per-flow cumulative packet marks (key -> packets) at this window
        # and at the previous one: global dicts, because a flow has exactly
        # one owner cluster-wide and keeps its cumulative count across
        # migrations — per-node marks would go stale the moment the policy
        # moved a flow.  A window's delta is the difference of the two.
        self._flow_marks: Dict[bytes, int] = {}
        self._previous_marks: Dict[bytes, int] = {}
        # Rebalance hysteresis state.
        self._rebalance_streak = 0
        self._rebalance_engaged = False
        self._rebalance_cooldown = 0
        # Autoscale streak/cooldown state.
        self._up_streak = 0
        self._down_streak = 0
        self._autoscale_cooldown = 0
        self._auto_index = 0
        self._obs_actions = obs.metrics.counter(
            "repro_control_actions_total",
            "Control-loop actions applied, by kind",
            labels=("kind",),
        )

    # -- window intake -------------------------------------------------------

    def _queue_window(self, window: WindowSnapshot) -> None:
        # Snapshots queue at close and are consumed by step(): acting here
        # would change membership inside the ingest barrier that is still
        # crediting this very window.
        self._pending.append(window)

    # -- the loop ------------------------------------------------------------

    def step(self) -> List[ControlAction]:
        """Evaluate every window closed since the last step; apply actions.

        Windows are processed in close order so streaks and cooldowns see
        each one.  Per window, the autoscaler gets first claim — a fleet
        that is simply under- or over-provisioned should change size, not
        shuffle flows — and a membership change invalidates that window's
        load shape, so rebalancing skips it.  Returns the actions applied
        by this call (also appended to :attr:`actions`).
        """
        taken: List[ControlAction] = []
        pending, self._pending = self._pending, []
        for window in pending:
            self.windows_seen += 1
            if self.rebalance is not None:
                self._refresh_flow_deltas()
            # One read of the window's load signal serves both policies: the
            # rebalancer only runs when the autoscaler left membership alone.
            loads = window_node_loads([window], self.coordinator.nodes)
            action: Optional[ControlAction] = None
            if self.autoscale is not None:
                action = self._autoscale_step(window, loads)
            if action is None and self.rebalance is not None:
                action = self._rebalance_step(window, loads)
            if action is not None:
                taken.append(action)
        return taken

    def _record(self, kind: str, window: WindowSnapshot, detail: dict) -> ControlAction:
        action = ControlAction(kind=kind, window=window.index, detail=detail)
        self.actions.append(action)
        migrated = action.detail.get("migrated")
        if isinstance(migrated, int):
            self.flows_moved += migrated
        lost = action.detail.get("lost")
        if isinstance(lost, int):
            self.flows_lost += lost
        self._obs_actions.inc(kind=action.kind)
        return action

    # -- flow-level signal ---------------------------------------------------

    def _refresh_flow_deltas(self) -> None:
        """Take this window's per-flow packet marks, fleet-wide.

        Only snapshots: one ``{key: packets}`` dict over every node's live
        flows (:meth:`ShardedFlowLUT.live_packet_counts`), with the previous
        window's marks kept beside it.  No delta is computed here — windows
        that do not pin never read one; :meth:`_flow_delta` derives it on
        demand, only for the hot node's flows.  Marks of flows no longer
        live drop out, so the dicts track the live set, not history.
        """
        marks: Dict[bytes, int] = {}
        for node in self.coordinator.nodes.values():
            marks.update(node.engine.live_packet_counts())
        self._previous_marks = self._flow_marks
        self._flow_marks = marks

    def _flow_delta(self, key_bytes: bytes) -> float:
        """One flow's packets between the previous window's marks and this
        window's, clamped at 0: a flow that expired and re-learned restarts
        its count (and a flow unknown to the marks reads 0)."""
        return float(
            max(
                self._flow_marks.get(key_bytes, 0)
                - self._previous_marks.get(key_bytes, 0),
                0,
            )
        )

    # -- autoscaling ---------------------------------------------------------

    def _autoscale_step(
        self, window: WindowSnapshot, loads: Dict[str, float]
    ) -> Optional[ControlAction]:
        policy = self.autoscale
        if self._autoscale_cooldown > 0:
            self._autoscale_cooldown -= 1
            return None
        total = sum(loads.values())
        if total <= 0:
            # Windows crossed in one advance close empty; an empty window
            # says nothing about provisioning, so it neither feeds nor
            # resets the streaks.
            return None
        mean = total / len(loads)
        if mean > policy.target_node_packets * policy.scale_up_ratio:
            self._up_streak += 1
            self._down_streak = 0
            if self._up_streak >= policy.for_windows and len(loads) < policy.max_nodes:
                return self._scale_up(window, mean)
        elif mean < policy.target_node_packets * policy.scale_down_ratio:
            self._down_streak += 1
            self._up_streak = 0
            if self._down_streak >= policy.for_windows and len(loads) > policy.min_nodes:
                return self._scale_down(window, loads, mean)
        else:
            self._up_streak = 0
            self._down_streak = 0
        return None

    def _scale_up(self, window: WindowSnapshot, mean: float) -> ControlAction:
        policy = self.autoscale
        node_id = f"{policy.node_prefix}{self._auto_index}"
        while node_id in self.coordinator.nodes:
            self._auto_index += 1
            node_id = f"{policy.node_prefix}{self._auto_index}"
        self._auto_index += 1
        event = self.coordinator.add_node(node_id)
        self._up_streak = 0
        self._autoscale_cooldown = policy.cooldown_windows
        return self._record("add_node", window, {**event, "mean_node_packets": mean})

    def _scale_down(
        self, window: WindowSnapshot, loads: Dict[str, float], mean: float
    ) -> ControlAction:
        policy = self.autoscale
        victim = min(loads, key=lambda node_id: (loads[node_id], node_id))
        event = self.coordinator.remove_node(victim)
        self._down_streak = 0
        self._autoscale_cooldown = policy.cooldown_windows
        return self._record("remove_node", window, {**event, "mean_node_packets": mean})

    # -- rebalancing ---------------------------------------------------------

    def _rebalance_step(
        self, window: WindowSnapshot, loads: Dict[str, float]
    ) -> Optional[ControlAction]:
        policy = self.rebalance
        total = sum(loads.values())
        if total < policy.min_window_packets or len(loads) < 2:
            return None
        imbalance = busiest_over_mean(loads.values())
        if imbalance <= policy.release:
            # Below the release line the fleet is balanced: disengage and
            # re-arm.  This is the hysteresis exit — between release and
            # engage an engaged policy keeps correcting, a disengaged one
            # stays quiet.
            self._rebalance_engaged = False
            self._rebalance_streak = 0
            return None
        if not self._rebalance_engaged:
            if imbalance > policy.engage:
                self._rebalance_streak += 1
                if self._rebalance_streak >= policy.for_windows:
                    self._rebalance_engaged = True
            else:
                self._rebalance_streak = 0
        if not self._rebalance_engaged:
            return None
        if self._rebalance_cooldown > 0:
            self._rebalance_cooldown -= 1
            return None
        hot_id = max(loads, key=lambda node_id: (loads[node_id], node_id))
        expected = self.coordinator.ring.arc_shares().get(hot_id, 0.0)
        observed = loads[hot_id] / total
        action: Optional[ControlAction] = None
        if expected > 0.0 and observed > policy.skew_ratio * expected:
            action = self._pin_hot_flows(window, hot_id, loads)
        if action is None:
            action = self._shift_weight(window, hot_id, loads)
        if action is not None:
            self._rebalance_cooldown = policy.cooldown_windows
        return action

    def _pin_hot_flows(
        self, window: WindowSnapshot, hot_id: str, loads: Dict[str, float]
    ) -> Optional[ControlAction]:
        """Shed the hot node's excess by pinning its hottest flows away.

        Candidates are the hot node's live flows whose window delta exceeds
        ``hot_flow_share`` of the window total, hottest first.  The deltas
        are computed here, lazily — the hot node's flows only, and only in a
        window that reaches this lever (:meth:`_flow_delta` over the marks
        :meth:`_refresh_flow_deltas` took for this window).  Each is
        assigned to the currently least-loaded other node (greedy, tracking
        the running loads) until the excess over the mean is shed or the
        per-action pin budget runs out.  Returns ``None`` when no flow
        qualifies — the skew then isn't a few elephants, and the weight
        lever takes over.
        """
        policy = self.rebalance
        total = sum(loads.values())
        mean = total / len(loads)
        floor = policy.hot_flow_share * total
        candidates: List[Tuple[float, bytes]] = []
        node = self.coordinator.nodes[hot_id]
        for key_bytes, record in node.engine.live_flow_pairs():
            if record is None:
                continue
            delta = self._flow_delta(key_bytes)
            if delta >= floor:
                candidates.append((delta, key_bytes))
        if not candidates:
            return None
        candidates.sort(key=lambda pair: (-pair[0], pair[1]))
        excess = loads[hot_id] - mean
        running = dict(loads)
        assignments: Dict[bytes, str] = {}
        for delta, key_bytes in candidates:
            if len(assignments) >= policy.max_pins_per_action or excess <= 0:
                break
            target = min(
                (node_id for node_id in running if node_id != hot_id),
                key=lambda node_id: (running[node_id], node_id),
            )
            assignments[key_bytes] = target
            running[target] += delta
            running[hot_id] -= delta
            excess -= delta
        if not assignments:
            return None
        event = self.coordinator.pin_flows(assignments)
        return self._record("pin", window, {**event, "node": hot_id})

    def _shift_weight(
        self, window: WindowSnapshot, hot_id: str, loads: Dict[str, float]
    ) -> Optional[ControlAction]:
        """Shed diffuse overload by shifting vnode weight off the hot node.

        Prefers shrinking the hot node's weight (its arcs spill to ring
        successors); at the weight floor it grows the coldest node instead.
        Returns ``None`` when both ends are pinned at their bounds — the
        ring is as balanced as the weight budget allows.
        """
        policy = self.rebalance
        weights = self.coordinator.ring.weights
        if weights[hot_id] - policy.weight_step >= policy.min_weight:
            event = self.coordinator.set_node_weight(
                hot_id, weights[hot_id] - policy.weight_step
            )
        else:
            cold_id = min(loads, key=lambda node_id: (loads[node_id], node_id))
            if (
                cold_id == hot_id
                or weights[cold_id] + policy.weight_step > policy.max_weight
            ):
                return None
            event = self.coordinator.set_node_weight(
                cold_id, weights[cold_id] + policy.weight_step
            )
        return self._record("reweight", window, dict(event))

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict:
        counts: Dict[str, int] = {}
        for action in self.actions:
            counts[action.kind] = counts.get(action.kind, 0) + 1
        report = {
            "windows_seen": self.windows_seen,
            "actions": [action.as_dict() for action in self.actions],
            "action_counts": counts,
            "flows_moved": self.flows_moved,
            "flows_lost": self.flows_lost,
            "pinned_flows": len(self.coordinator.pins),
            "weights": self.coordinator.ring.weights,
        }
        if self.rebalance is not None:
            report["rebalance"] = {
                **asdict(self.rebalance),
                "engaged": self._rebalance_engaged,
                "streak": self._rebalance_streak,
                "cooldown": self._rebalance_cooldown,
            }
        if self.autoscale is not None:
            report["autoscale"] = {
                **asdict(self.autoscale),
                "up_streak": self._up_streak,
                "down_streak": self._down_streak,
                "cooldown": self._autoscale_cooldown,
            }
        return report
