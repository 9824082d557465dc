"""Packet sampling.

Routers in the paper export sampled flow data: the ISP samples packets at
a consistent rate at all border routers, the IXP an order of magnitude
lower across its fabric.  :class:`PacketSampler` makes per-packet
decisions for the ground-truth (testbed) simulations, supporting both
*random* (independent 1-in-N) and *deterministic* (every Nth packet)
modes.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional

from repro.netflow.records import PacketRecord

__all__ = ["PacketSampler"]


class PacketSampler:
    """A 1-in-N packet sampler.

    ``interval`` is N (1 = keep everything).  ``mode`` is ``"random"``
    (each packet kept independently with probability 1/N, the common
    router implementation) or ``"deterministic"`` (systematic count-based
    sampling: one packet out of every N, with a random initial offset).
    """

    def __init__(
        self,
        interval: int,
        mode: str = "random",
        seed: Optional[int] = None,
    ) -> None:
        if interval < 1:
            raise ValueError("sampling interval must be >= 1")
        if mode not in ("random", "deterministic"):
            raise ValueError(f"unknown sampling mode {mode!r}")
        self.interval = interval
        self.mode = mode
        self._rng = random.Random(seed)
        self._countdown = (
            self._rng.randrange(interval) if mode == "deterministic" else 0
        )
        self.seen = 0
        self.kept = 0

    def sample(self, packet: PacketRecord) -> bool:
        """Decide whether to keep one packet."""
        self.seen += 1
        if self.interval == 1:
            self.kept += 1
            return True
        if self.mode == "random":
            keep = self._rng.randrange(self.interval) == 0
        else:
            keep = self._countdown == 0
            self._countdown = (
                self.interval - 1 if keep else self._countdown - 1
            )
        if keep:
            self.kept += 1
        return keep

    def filter(
        self, packets: Iterable[PacketRecord]
    ) -> Iterator[PacketRecord]:
        """Yield only the sampled packets of a stream."""
        for packet in packets:
            if self.sample(packet):
                yield packet

    @property
    def observed_rate(self) -> float:
        """Empirical kept/seen ratio so far."""
        if not self.seen:
            return 0.0
        return self.kept / self.seen

