"""The fleet's windowed load signal, shared by reports and the control loop.

Both :class:`~repro.cluster.coordinator.ClusterCoordinator`'s windowed
imbalance report and :class:`~repro.cluster.control.ClusterControl`'s
policies judge the fleet by the same figure — descriptors completed per
node inside closed obs windows — so it is defined once, here, below both.
(The imbalance *ratio* over such loads is the generic
:func:`repro.sim.stats.busiest_over_mean`.)
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.obs.windows import WindowSnapshot

OUTCOMES_METRIC = "repro_engine_outcomes_total"


def window_node_loads(
    windows: Iterable[WindowSnapshot], node_ids: Iterable[str]
) -> Dict[str, float]:
    """Per-node completed descriptors (hit + miss deltas) summed over ``windows``.

    Nodes in ``node_ids`` absent from the windows' series read 0.0; series
    entries for departed nodes are ignored.  This counter is maintained
    under every executor (engines credit it inline; the process barrier
    reconciles it), which is what makes it the control loop's load signal.
    """
    loads: Dict[str, float] = {node_id: 0.0 for node_id in node_ids}
    for window in windows:
        for result in ("hit", "miss"):
            grouped = window.values(
                OUTCOMES_METRIC, where={"result": result}, group_by="node"
            )
            for node_id, value in grouped.items():
                if node_id in loads:
                    loads[node_id] += value
    return loads
