"""Open-loop export traffic: the two routers of the ``wire_live`` workload.

The sender keeps a fixed schedule — datagram ``i`` is due at
``start + i * interval`` whatever the collector does — so a slow
collector receives the same offered load and shows it as a growing
drain tail and then as kernel drops, never as a slower generator.
Each send is stamped against its *due* time; how late the generator
itself ran is reported so a stalled benchmark process cannot pass for
a stalled collector.  Traffic crosses the host loopback, not a link.
"""

import os
import socket
import struct
import time
from dataclasses import dataclass
from typing import Iterator


def iter_datagrams(path) -> Iterator[bytes]:
    """The length-prefixed payloads ``corpus.write_wire`` stored, one at
    a time: the sending process must stay small (see ``procs.py``), so
    it never holds the corpus."""
    with open(path, "rb") as fh:
        while True:
            prefix = fh.read(4)
            if not prefix:
                return
            yield fh.read(struct.unpack("!I", prefix)[0])


@dataclass
class SendReport:
    sent: int
    #: perf_counter() at which the last datagram was due
    last_due: float
    #: generator lateness (send time - due time), 99th percentile
    late_p99_ms: float
    late_max_ms: float


def send_open_loop(port: int, path, datagrams_per_s: float) -> SendReport:
    """Send the datagrams stored at ``path`` to ``127.0.0.1:port`` on a
    fixed schedule.

    While sending, this process keeps to the highest-numbered CPU it
    may use: each loopback send wakes the collector, and without the
    pin the scheduler tends to run the woken collector on the sender's
    core, where a long fold then holds up the schedule (measured here:
    generator lateness p99 of 34 ms unpinned, 0.3 ms pinned).  The
    collector was spawned before the pin and may run anywhere.
    """
    interval = 1.0 / datagrams_per_s
    lateness = []
    clock = time.perf_counter
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.connect(("127.0.0.1", port))
            start = clock() + 0.01
            due = start
            for number, payload in enumerate(iter_datagrams(path)):
                due = start + number * interval
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                lateness.append(clock() - due)
                sock.send(payload)
    finally:
        os.sched_setaffinity(0, allowed)
    lateness.sort()
    return SendReport(
        sent=len(lateness),
        last_due=due,
        late_p99_ms=lateness[int(0.99 * (len(lateness) - 1))] * 1e3,
        late_max_ms=lateness[-1] * 1e3,
    )
