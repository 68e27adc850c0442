"""The construction pipeline, from unit plan to relay processor."""

from __future__ import annotations

from dataclasses import dataclass

from .channel import (
    ChannelSet,
    SystemConfig,
    deactivate_relay_antennas,
    sample_channel_set,
)
from .errors import ConstructionError
from .relay import RelayProcessor, build_relay_processor
from .units import AlignmentPlan, Unit, execute_plan, plan_alignment

__all__ = ["Construction", "construct"]


@dataclass(frozen=True, eq=False)
class Construction:
    """Everything one seeded construction produced, stage by stage; ``==`` is identity."""

    plan: AlignmentPlan
    channels: ChannelSet
    units: list[Unit]
    processor: RelayProcessor


def construct(m: int, n: int, k: int, seed: int, improved: bool = False) -> Construction:
    """Plan, sample, build units and design the relay, for ``(M, N, K)``.

    Stages in order: :func:`plan_alignment`; :func:`sample_channel_set` on
    ``seed``, then :func:`deactivate_relay_antennas` if the plan keeps fewer
    relay rows; :func:`execute_plan`, which builds the units and beside them
    their downlink twins, drawing from RNG substreams 1 and 2 of ``seed``;
    :func:`build_relay_processor`, which takes the twins from the units and
    draws nothing.  A failed stage raises
    :class:`~ssalign.errors.ConstructionError` tagged with its ``stage``:
    ``execute`` for a unit or a user's beamformer stack, then ``downlink``
    for a twin, then the relay's ``uplink``, ``downlink`` or ``forward``, in
    the relay's check order.  One raised after sampling carries the sampled
    channels as its ``channels``, from which the same stages raise it again.
    Count the decodable DoF of the result with
    :func:`~ssalign.relay.verify_end_to_end`, which reports failures instead
    of raising them.
    """
    plan = plan_alignment(m, n, k, improved)
    cfg = SystemConfig(m=m, n=n, k=k, extension=plan.extension, seed=seed)
    channels = sample_channel_set(cfg)
    if plan.active_relay < channels.active_relay:
        channels = deactivate_relay_antennas(channels, plan.active_relay)
    try:
        units = execute_plan(plan, channels)
        processor = build_relay_processor(units)
    except ConstructionError as exc:
        exc.channels = channels
        raise
    return Construction(plan, channels, units, processor)
