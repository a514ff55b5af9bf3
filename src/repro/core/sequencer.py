"""The sequencer / load balancer (front of Figure 2).

Both the original tuples and the two hash results of every descriptor are fed
into a sequencer whose load balancer decides which path (A or B) the
descriptor tries first.  The paper evaluates this block directly: Table II-A
sweeps the fraction of traffic whose first lookup lands on path A (50 % /
25 % / 0 %) and shows that balanced load is roughly 20 % faster than pushing
everything through one path.

Policies
--------
``adaptive``
    Pick the path with the most free space in its first-lookup queue (the
    "optimized load balancer" of Section V); ties alternate.
``hash``
    Use one bit of the first hash value, giving a per-flow-stable choice.
``fixed``
    Send a configured fraction of descriptors to path A (deterministically
    interleaved), reproducing the Table II-A sweep.
``round_robin``
    Strict alternation.
"""

from __future__ import annotations

import enum
from typing import Optional, Set

from repro.sim.rng import SeedLike, make_rng


class LoadBalancePolicy(enum.Enum):
    ADAPTIVE = "adaptive"
    HASH = "hash"
    FIXED = "fixed"
    ROUND_ROBIN = "round_robin"


# Policies that fix the path per descriptor and stall rather than divert.
_PREFERRED_PATH_POLICIES = (
    LoadBalancePolicy.FIXED,
    LoadBalancePolicy.HASH,
    LoadBalancePolicy.ROUND_ROBIN,
)


class Sequencer:
    """Chooses the first lookup path for each descriptor.

    Parameters
    ----------
    policy: one of :class:`LoadBalancePolicy` (or its string value).
    path_a_fraction: target fraction of first lookups on path A (``fixed``).
    seed: RNG seed (only used to break ties reproducibly).
    """

    def __init__(
        self,
        policy: str = "adaptive",
        path_a_fraction: float = 0.5,
        seed: SeedLike = None,
    ) -> None:
        self.policy = LoadBalancePolicy(policy) if isinstance(policy, str) else policy
        if not 0.0 <= path_a_fraction <= 1.0:
            raise ValueError("path_a_fraction must be within [0, 1]")
        self.path_a_fraction = path_a_fraction
        self._rng = make_rng(seed)
        self._toggle = 0
        self._fraction_accumulator = 0.0
        self.dispatched = [0, 0]
        self.stalled = 0

    # ------------------------------------------------------------------ #
    # Path selection
    # ------------------------------------------------------------------ #

    def preferred_path(self, hash1: int) -> int:
        """The path this descriptor would take if both paths were free.

        For the ``fixed`` policy the decision is made per descriptor with a
        deterministic fractional accumulator so a 25 % setting sends exactly
        one descriptor in four to path A; for ``hash`` it is a hash bit; the
        dynamic policies defer to :meth:`choose`.
        """
        if self.policy is LoadBalancePolicy.FIXED:
            self._fraction_accumulator += self.path_a_fraction
            if self._fraction_accumulator >= 1.0 - 1e-12:
                self._fraction_accumulator -= 1.0
                return 0
            return 1
        if self.policy is LoadBalancePolicy.HASH:
            return hash1 & 1
        if self.policy is LoadBalancePolicy.ROUND_ROBIN:
            path = self._toggle
            self._toggle ^= 1
            return path
        # Adaptive defers to queue headroom at dispatch time.
        return -1

    def choose(
        self,
        preferred: int,
        headroom_a: int,
        headroom_b: int,
        available: Optional[Set[int]] = None,
    ) -> Optional[int]:
        """Pick the first-lookup path given per-path queue headroom.

        ``preferred`` is the value returned by :meth:`preferred_path`;
        ``available`` restricts the choice (e.g. when the other path already
        received a dispatch this cycle).  Returns ``None`` when the chosen
        path cannot accept a request, which stalls the input — the paper's
        fixed-assignment experiments must not silently divert traffic.
        """
        candidates = available if available is not None else {0, 1}

        if self.policy in _PREFERRED_PATH_POLICIES:
            headroom = headroom_a if preferred == 0 else headroom_b
            if preferred in candidates and headroom > 0:
                self.dispatched[preferred] += 1
                return preferred
            self.stalled += 1
            return None

        # Adaptive: most headroom wins; ties alternate.
        options = []
        if 0 in candidates and headroom_a > 0:
            options.append((headroom_a, 0))
        if 1 in candidates and headroom_b > 0:
            options.append((headroom_b, 1))
        if not options:
            self.stalled += 1
            return None
        options.sort(reverse=True)
        if len(options) == 2 and options[0][0] == options[1][0]:
            path = self._toggle
            self._toggle ^= 1
        else:
            path = options[0][1]
        self.dispatched[path] += 1
        return path

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    @property
    def total_dispatched(self) -> int:
        return self.dispatched[0] + self.dispatched[1]

    @property
    def path_a_load(self) -> float:
        """Measured fraction of first lookups sent to path A (Table II-A column)."""
        total = self.total_dispatched
        return self.dispatched[0] / total if total else 0.0

    def stats(self) -> dict:
        return {
            "policy": self.policy.value,
            "dispatched_a": self.dispatched[0],
            "dispatched_b": self.dispatched[1],
            "path_a_load": self.path_a_load,
            "stalled": self.stalled,
        }
