"""Declarative alert rules evaluated at every window close.

An :class:`AlertEngine` subscribes to a :class:`WindowedRegistry`
(``windows.on_close(engine.observe_window)``) and evaluates its rules
against each closed :class:`WindowSnapshot`.  Four rule kinds cover the
shipped watchdogs:

``threshold``
    ``sum(metric deltas)`` compared against a constant (e.g. any flow loss).
``ratio``
    With ``group_by``: the windowed load-imbalance figure
    ``max_group * groups / total`` (the time-resolved twin of
    ``ClusterCoordinator.imbalance_report``).  With ``denominator``: a
    plain numerator/denominator rate such as the per-window miss rate.
``delta``
    Relative change of the metric's window delta versus the *previous*
    window — ``op="<"`` with ``threshold=0.75`` means "fires when the rate
    collapses to below 25% of the last window".
``absence``
    The signal metric stayed at zero while a guard metric moved — e.g. no
    replicated packets while ingest continued (replica lag / dead mirror).

Rules gate on ``min_count`` (windows too small to judge are skipped) and on
``for_windows`` (the condition must hold for N consecutive closes before
firing).  A rule fires **once at onset** — recording an ``alert`` event in
the shared :class:`EventJournal` with the onset window's index and bounds —
stays active while the condition holds, then records ``alert_resolved`` and
re-arms.  Context providers (e.g. the coordinator's ``imbalance_report``)
can enrich the firing event with point-in-time diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.journal import EventJournal
from repro.obs.windows import WindowSnapshot
from repro.sim.stats import busiest_over_mean


class AlertError(ValueError):
    """Raised on invalid rule definitions."""


_KINDS = ("threshold", "ratio", "delta", "absence")
_OPS = {
    ">": lambda value, bound: value > bound,
    ">=": lambda value, bound: value >= bound,
    "<": lambda value, bound: value < bound,
    "<=": lambda value, bound: value <= bound,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative watchdog over the windowed series."""

    name: str
    kind: str
    metric: str
    threshold: float = 0.0
    op: str = ">"
    where: Optional[Dict[str, str]] = None
    group_by: Optional[str] = None
    denominator: Optional[str] = None
    denominator_where: Optional[Dict[str, str]] = None
    min_count: float = 0.0
    for_windows: int = 1
    guard_metric: Optional[str] = None
    description: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise AlertError(f"unknown rule kind {self.kind!r}; expected one of {_KINDS}")
        if self.op not in _OPS:
            raise AlertError(f"unknown op {self.op!r}; expected one of {sorted(_OPS)}")
        if self.for_windows < 1:
            raise AlertError(f"for_windows must be >= 1, got {self.for_windows}")
        if self.kind == "absence" and not self.guard_metric:
            raise AlertError("absence rules need a guard_metric")


@dataclass(frozen=True)
class AlertFiring:
    """One onset: rule crossed its threshold at ``window``."""

    rule: str
    window: int
    window_start_ps: int
    window_end_ps: int
    value: float
    threshold: float
    context: Dict[str, object] = field(default_factory=dict)


class AlertEngine:
    """Evaluates :class:`AlertRule` sets at each window close."""

    def __init__(
        self,
        rules: Sequence[AlertRule] = (),
        journal: Optional[EventJournal] = None,
        auto_defaults: bool = False,
    ):
        self.rules: List[AlertRule] = list(rules)
        self.journal = journal
        self.auto_defaults = auto_defaults
        self.firings: List[AlertFiring] = []
        self.windows_seen = 0
        self._streak: Dict[str, int] = {}
        self._active: Dict[str, bool] = {}
        self._previous: Optional[WindowSnapshot] = None
        self._context: Dict[str, Callable[[], dict]] = {}

    def add_rules(self, rules: Sequence[AlertRule]) -> None:
        self.rules.extend(rules)

    def set_context(self, rule_name: str, provider: Callable[[], dict]) -> None:
        """Attach a diagnosis callback whose output enriches onset events."""
        self._context[rule_name] = provider

    def attach(self, windows) -> None:
        """Subscribe to a :class:`WindowedRegistry`'s close notifications."""
        windows.on_close(self.observe_window)

    # -- evaluation ----------------------------------------------------------

    def observe_window(self, window: WindowSnapshot) -> List[AlertFiring]:
        """Evaluate every rule against one closed window; returns new onsets."""
        onsets: List[AlertFiring] = []
        for rule in self.rules:
            evaluated, value = self._evaluate(rule, window)
            condition = evaluated and _OPS[rule.op](value, rule.threshold)
            if condition:
                streak = self._streak.get(rule.name, 0) + 1
                self._streak[rule.name] = streak
                if streak >= rule.for_windows and not self._active.get(rule.name):
                    self._active[rule.name] = True
                    onsets.append(self._fire(rule, window, value))
            else:
                self._streak[rule.name] = 0
                if self._active.get(rule.name):
                    self._active[rule.name] = False
                    if self.journal is not None:
                        self.journal.record(
                            "alert_resolved", rule=rule.name, window=window.index
                        )
        self._previous = window
        self.windows_seen += 1
        return onsets

    def _evaluate(self, rule: AlertRule, window: WindowSnapshot) -> Tuple[bool, float]:
        """Returns (gates passed, rule value for this window)."""
        if rule.kind == "threshold":
            value = window.total(rule.metric, where=rule.where)
            return True, value
        if rule.kind == "ratio":
            if rule.group_by:
                groups = window.values(
                    rule.metric, where=rule.where, group_by=rule.group_by
                )
                total = sum(groups.values())
                if total < rule.min_count or len(groups) < 2:
                    return False, 0.0
                return True, busiest_over_mean(groups.values())
            numerator = window.total(rule.metric, where=rule.where)
            denominator = window.total(
                rule.denominator or rule.metric, where=rule.denominator_where
            )
            if denominator < rule.min_count or denominator <= 0:
                return False, 0.0
            return True, numerator / denominator
        if rule.kind == "delta":
            if self._previous is None:
                return False, 0.0
            before = self._previous.total(rule.metric, where=rule.where)
            if before < rule.min_count or before <= 0:
                return False, 0.0
            now = window.total(rule.metric, where=rule.where)
            # Relative change: -1.0 means the signal vanished entirely.
            return True, (now - before) / before
        # absence: the guard moved but the signal did not.
        guard = window.total(rule.guard_metric, where=None)
        if guard < max(rule.min_count, 1.0):
            return False, 0.0
        signal = window.total(rule.metric, where=rule.where)
        # op/threshold default (> 0) reads "fires when absent": value is 1
        # when the signal is missing, 0 when present.
        return True, 1.0 if signal == 0 else 0.0

    # Journal-onset field names a context provider must not shadow: the
    # event's own figures plus EventJournal.record's positional parameters.
    _RESERVED = frozenset(
        {
            "rule",
            "rule_kind",
            "metric",
            "window",
            "window_start_ps",
            "window_end_ps",
            "value",
            "threshold",
            "kind",
            "node",
        }
    )

    def _fire(self, rule: AlertRule, window: WindowSnapshot, value: float) -> AlertFiring:
        context: Dict[str, object] = {}
        provider = self._context.get(rule.name)
        if provider is not None:
            for key, item in provider().items():
                # Context keys colliding with the onset event's own fields
                # (e.g. imbalance_report's "threshold") are namespaced, not
                # silently dropped or allowed to shadow the rule's figures.
                if key in self._RESERVED:
                    key = f"context_{key}"
                if isinstance(item, (bool, int, float, str)):
                    context[key] = item
                elif isinstance(item, (list, tuple)) and all(
                    isinstance(element, str) for element in item
                ):
                    context[key] = list(item)
        firing = AlertFiring(
            rule=rule.name,
            window=window.index,
            window_start_ps=window.start_ps,
            window_end_ps=window.end_ps,
            value=value,
            threshold=rule.threshold,
            context=context,
        )
        self.firings.append(firing)
        if self.journal is not None:
            self.journal.record(
                "alert",
                rule=rule.name,
                rule_kind=rule.kind,
                metric=rule.metric,
                window=window.index,
                window_start_ps=window.start_ps,
                window_end_ps=window.end_ps,
                value=value,
                threshold=rule.threshold,
                **context,
            )
        return firing

    # -- queries -------------------------------------------------------------

    def firings_for(self, rule_name: str) -> List[AlertFiring]:
        return [firing for firing in self.firings if firing.rule == rule_name]

    def first_onset(self, rule_name: str) -> Optional[AlertFiring]:
        for firing in self.firings:
            if firing.rule == rule_name:
                return firing
        return None

    def is_active(self, rule_name: str) -> bool:
        return bool(self._active.get(rule_name))


def default_cluster_rules(replication: int = 1) -> List[AlertRule]:
    """The shipped cluster watchdogs.

    Thresholds are calibrated against the scenario library: on a 5-node
    ring the ``hotspot_shift`` second half sits at a windowed node
    imbalance >= 2.0 while steady-state ``zipf_mix`` stays <= 1.7, so 1.8
    separates them with margin on both sides.
    """
    rules = [
        AlertRule(
            name="node_imbalance",
            kind="ratio",
            metric="repro_engine_shard_descriptors_total",
            group_by="node",
            threshold=1.8,
            min_count=128,
            description="Windowed per-node load imbalance (max share x nodes)",
        ),
        AlertRule(
            name="miss_rate_spike",
            kind="ratio",
            metric="repro_engine_outcomes_total",
            where={"result": "miss"},
            denominator="repro_engine_outcomes_total",
            threshold=0.6,
            min_count=128,
            description="Per-window flow-table miss rate",
        ),
        AlertRule(
            name="failover_loss",
            kind="threshold",
            metric="repro_cluster_flows_lost_total",
            threshold=0.0,
            description="Any flow records lost to failures in the window",
        ),
        AlertRule(
            name="ingest_collapse",
            kind="delta",
            metric="repro_cluster_ingested_total",
            op="<",
            threshold=-0.75,
            min_count=256,
            description="Ingest rate dropped below 25% of the previous window",
        ),
    ]
    if replication > 1:
        rules.append(
            AlertRule(
                name="replica_lag",
                kind="absence",
                metric="repro_cluster_replicated_packets_total",
                guard_metric="repro_cluster_ingested_total",
                min_count=128,
                for_windows=2,
                description="Ingest continued but nothing was mirrored to backups",
            )
        )
    return rules
