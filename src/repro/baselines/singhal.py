"""Singhal–Kshemkalyani differential vector timestamps (IPL 1992).

The closest prior work the paper discusses (§7): in a message-passing
system of n processes, a sender transmits to process *j* only the vector
entries that changed since its previous message to *j*, tracking two
auxiliary vectors — *last sent* ``LS[j]`` and *last update* ``LU[i]`` —
per process.

The paper's critique, which experiment E7/related-work tests demonstrate:

* the scheme piggybacks on FIFO point-to-point *messages between fixed
  processes*, modeling local events and remote messaging in one causal
  relation — it has no notion of replicas meeting opportunistically, so it
  cannot answer "are these two replicas concurrent?" on its own; and
* it needs O(n) auxiliary storage *per peer* (the LS matrix row), which is
  n× the vector it compresses.

Implemented here faithfully for its own setting so the comparison is fair:
processes with vector clocks exchanging messages carrying entry diffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class SKMessage:
    """A message carrying only the changed vector entries."""

    sender: str
    receiver: str
    entries: Tuple[Tuple[str, int], ...]

    def entry_count(self) -> int:
        """Number of piggybacked vector entries."""
        return len(self.entries)


class SKProcess:
    """One process running the Singhal–Kshemkalyani technique."""

    def __init__(self, name: str, peers: List[str]) -> None:
        self.name = name
        self.clock: Dict[str, int] = {name: 0}
        #: LS[j]: the value of our own component when we last sent to j.
        self.last_sent: Dict[str, int] = {peer: 0 for peer in peers}
        #: LU[i]: the value of our own component when component i last changed.
        self.last_update: Dict[str, int] = {name: 0}

    def local_event(self) -> None:
        """Tick the local component (an internal event)."""
        self.clock[self.name] = self.clock.get(self.name, 0) + 1
        self.last_update[self.name] = self.clock[self.name]

    def prepare_message(self, receiver: str) -> SKMessage:
        """Send: tick, then include only entries changed since last send."""
        self.local_event()
        threshold = self.last_sent.get(receiver, 0)
        entries = tuple(sorted(
            (process, value) for process, value in self.clock.items()
            if self.last_update.get(process, 0) > threshold))
        self.last_sent[receiver] = self.clock[self.name]
        return SKMessage(self.name, receiver, entries)

    def deliver(self, message: SKMessage) -> int:
        """Receive: tick, then max-merge the piggybacked entries.

        Returns how many entries actually advanced the local clock.
        """
        self.local_event()
        advanced = 0
        for process, value in message.entries:
            if value > self.clock.get(process, 0):
                self.clock[process] = value
                self.last_update[process] = self.clock[self.name]
                advanced += 1
        return advanced

    def storage_entries(self) -> int:
        """Auxiliary state the technique needs: |LS| + |LU| entries."""
        return len(self.last_sent) + len(self.last_update)
