"""The consistent-hash ring: slots, assignment, epochs, rebalance.

The fleet partitions the subscriber key space into a fixed number of
*ring slots* — many more slots than workers — and assigns each slot to
a worker.  Records hash to slots via the pipeline's memoised keying
(:class:`~repro.pipeline.flow.SubscriberKeying`), so the record → slot
mapping is a pure function of the keying salt and never changes; only
the slot → worker mapping moves.  That split is what makes rebalance
cheap and deterministic: when a worker is quarantined, its slots are
reassigned wholesale to a successor and the ring *epoch* increments —
checkpoint lineage records the epoch, so a resumed fleet can audit
which assignment its evidence accumulated under.

The assignment is persisted as ``ring.json`` in the fleet directory
(atomic replace), because a router crash must not forget a rebalance:
the replacement router has to know which worker owns each slot before
it can rebuild per-slot replay offsets from worker checkpoints.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, List, Optional, Union

__all__ = ["DEFAULT_RING_SLOTS", "HashRing"]

#: Default slot count.  Record → slot assignment depends on this (and
#: the keying salt) alone, so every fleet width N ∈ {1..slots} of the
#: same corpus shares one routing function — the property the
#: N-vs-single-engine equivalence proof rides on.
DEFAULT_RING_SLOTS = 64


class HashRing:
    """Slot → worker assignment with epoch-counted rebalance."""

    def __init__(self, slots: int, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if slots < workers:
            raise ValueError(
                f"{slots} slots cannot cover {workers} workers"
            )
        self.slots = slots
        self.workers = workers
        #: slot index -> worker id (round-robin start: balanced and
        #: deterministic for any worker count)
        self.assignment: List[int] = [
            slot % workers for slot in range(slots)
        ]
        self.epoch = 0
        self.quarantined: List[int] = []

    # -- queries ------------------------------------------------------

    def worker_of(self, slot: int) -> int:
        return self.assignment[slot]

    def slots_of(self, worker: int) -> List[int]:
        return [
            slot
            for slot, owner in enumerate(self.assignment)
            if owner == worker
        ]

    def live_workers(self) -> List[int]:
        return [
            worker
            for worker in range(self.workers)
            if worker not in self.quarantined
        ]

    # -- rebalance ----------------------------------------------------

    def successor_of(self, worker: int) -> int:
        """The live worker that inherits ``worker``'s slots.

        The next live worker in cyclic id order — deterministic, so a
        rerun of the same fault schedule rebalances identically.
        """
        for step in range(1, self.workers):
            candidate = (worker + step) % self.workers
            if (
                candidate not in self.quarantined
                and candidate != worker
            ):
                return candidate
        raise RuntimeError("no live worker left to inherit the slots")

    def quarantine(self, worker: int) -> Dict[str, object]:
        """Quarantine ``worker``; reassign its slots; bump the epoch.

        Returns ``{"successor", "slots", "epoch"}`` — everything the
        router needs to drive adoption and replay.
        """
        if worker in self.quarantined:
            raise ValueError(f"worker {worker} already quarantined")
        successor = self.successor_of(worker)
        moved = self.slots_of(worker)
        for slot in moved:
            self.assignment[slot] = successor
        self.quarantined.append(worker)
        self.epoch += 1
        return {
            "successor": successor,
            "slots": moved,
            "epoch": self.epoch,
        }

    # -- persistence --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "slots": self.slots,
            "workers": self.workers,
            "assignment": list(self.assignment),
            "epoch": self.epoch,
            "quarantined": list(self.quarantined),
        }

    def save(self, path: Union[str, pathlib.Path]) -> None:
        """Atomically persist the assignment (router-crash safety)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(
            json.dumps(self.to_dict(), sort_keys=True), encoding="ascii"
        )
        os.replace(tmp, path)

    @classmethod
    def load(
        cls, path: Union[str, pathlib.Path]
    ) -> Optional["HashRing"]:
        path = pathlib.Path(path)
        if not path.exists():
            return None
        state = json.loads(path.read_text(encoding="ascii"))
        ring = cls(int(state["slots"]), int(state["workers"]))
        ring.assignment = [int(w) for w in state["assignment"]]
        ring.epoch = int(state["epoch"])
        ring.quarantined = [int(w) for w in state["quarantined"]]
        return ring
