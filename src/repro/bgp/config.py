"""Protocol configuration.

One :class:`BGPConfig` describes everything about how the speakers behave —
the experiment layer composes these from scheme specifications.  Defaults
follow the paper's setup (Sec 3.2) except for the MRAI value, which the
experiments always set explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.bgp.damping import DampingConfig
from repro.bgp.mrai import ConstantMRAI, MRAIPolicy
from repro.bgp.policy import RoutingPolicy
from repro.bgp.queues import QUEUES
from repro.sim.timers import Jitter

#: The paper's update service times: uniform between 1 and 30 ms (Sec 3.2).
DEFAULT_PROCESSING_RANGE = (0.001, 0.030)


@dataclass
class BGPConfig:
    """Behavioural configuration shared by all speakers in a network.

    Parameters
    ----------
    mrai_policy:
        Assigns each node its MRAI controller (constant / degree-dependent /
        dynamic).  Default: the RFC-1771 30 s constant.
    processing_delay_range:
        Uniform service-time range per processed update, in seconds.
        ``(0.0, 0.0)`` disables the processing model entirely (the
        configuration of the authors' *earlier* study, kept for ablations).
    queue_discipline:
        ``"fifo"`` (BGP default), ``"dest_batch"`` (the paper's batching
        scheme), ``"dest_batch_wf"`` (the withdrawal-first refinement of
        it, from the paper's future work) or ``"tcp_batch"`` (router-style
        fixed-size batches).
    tcp_batch_size:
        Batch size for the ``"tcp_batch"`` discipline.
    withdrawal_rate_limiting:
        When False (RFC 1771 default, used by the paper) withdrawals bypass
        the MRAI and are sent immediately.
    sender_side_loop_detection:
        Skip advertising a path to a peer whose AS already appears in it
        (the receiver would reject it anyway).  Saves messages without
        changing convergence outcomes.
    per_destination_mrai:
        Use one MRAI timer per (peer, destination) instead of per peer.
        The paper notes per-peer "is more prevalent in the Internet today";
        the per-destination variant is provided for the ablation bench.
    mrai_jitter:
        Timer jitter; the RFC-1771 "reduction of up to 25%" by default.
    damping:
        Optional RFC-2439 route flap damping applied to eBGP-learned
        routes.  The paper does not use damping; it is provided as the
        deployed-practice comparison scheme (see the ``ab_flap_damping``
        ablation).
    """

    mrai_policy: MRAIPolicy = field(default_factory=lambda: ConstantMRAI(30.0))
    processing_delay_range: Tuple[float, float] = DEFAULT_PROCESSING_RANGE
    queue_discipline: str = "fifo"
    tcp_batch_size: int = 8
    withdrawal_rate_limiting: bool = False
    sender_side_loop_detection: bool = True
    per_destination_mrai: bool = False
    mrai_jitter: Jitter = field(default_factory=Jitter)
    damping: Optional[DampingConfig] = None
    #: Optional routing policy (import ranking + export filtering).  None
    #: reproduces the paper's "no policy based restrictions" setting.
    policy: Optional[RoutingPolicy] = None

    def __post_init__(self) -> None:
        lo, hi = self.processing_delay_range
        if lo < 0 or hi < lo:
            raise ValueError(
                f"bad processing delay range {self.processing_delay_range}"
            )
        if self.queue_discipline not in QUEUES:
            raise ValueError(
                f"unknown queue discipline {self.queue_discipline!r}"
            )
        if self.tcp_batch_size < 1:
            raise ValueError("tcp_batch_size must be >= 1")

    @property
    def mean_processing_delay(self) -> float:
        """Mean per-update service time; the dynamic scheme's multiplier."""
        lo, hi = self.processing_delay_range
        return (lo + hi) / 2.0
