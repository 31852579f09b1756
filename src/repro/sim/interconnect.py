"""Core<->memory interconnection network.

Paper Table II: "20-cycle fixed latency, at most 1 req. from every 2 cores
per cycle".  We model the request path as a token-bucket arbiter (an
injection budget of ``num_cores / cores_per_injection_slot`` requests per
cycle, granted round-robin over the cores) feeding a fixed-latency pipe.
Responses ride a fixed-latency return pipe without a bandwidth limit (the
paper does not constrain the response path).

The arbiter accumulates credit across skipped cycles so the simulator's
cycle-skipping fast path conserves bandwidth.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

from repro.sim.config import InterconnectConfig
from repro.sim.memory_request import MemoryRequest
from repro.sim.mrq import MemoryRequestQueue

#: FIFO tiebreaker inside the in-flight heap tuples.
_seq = itertools.count()

#: Shared immutable "nothing arrived" result for the pop fast paths.
_NO_ARRIVALS: Tuple[()] = ()


class Interconnect:
    """Fixed-latency, injection-limited request/response network."""

    def __init__(self, config: InterconnectConfig, num_cores: int) -> None:
        self.config = config
        self.num_cores = num_cores
        self.slots_per_cycle = max(1, num_cores // config.cores_per_injection_slot)
        self._rr_pointer = 0
        self._credit = 0.0
        self._last_step_cycle = 0
        self._to_memory: List[Tuple[int, int, MemoryRequest]] = []
        self._to_core: List[Tuple[int, int, int, MemoryRequest]] = []
        self.total_injected = 0

    def tick_idle(self, cycle: int) -> None:
        """Advance the arbiter clock/credit for a cycle with nothing to send.

        The credit cap is ``slots_per_cycle * max(1, elapsed)`` with
        ``elapsed`` measured since the last arbiter update, so a caller
        that elides :meth:`inject_requests` on empty-queue cycles must
        still tick the clock here — otherwise the next real injection
        sees the whole idle gap as one interval and banks its bandwidth.
        """
        elapsed = cycle - self._last_step_cycle
        self._last_step_cycle = cycle
        self._credit = min(
            self._credit + elapsed * self.slots_per_cycle,
            float(self.slots_per_cycle) * max(1, elapsed),
        )

    def inject_requests(self, cycle: int, mrqs: List[MemoryRequestQueue]) -> None:
        """Arbiter: pull sendable requests from the MRQs into the pipe.

        Grants up to ``slots_per_cycle`` injections per elapsed cycle,
        round-robin over cores, carrying unused credit forward (bounded to
        one cycle's worth so a long idle period cannot bank unbounded
        bandwidth).
        """
        elapsed = cycle - self._last_step_cycle
        self._last_step_cycle = cycle
        self._credit = min(
            self._credit + elapsed * self.slots_per_cycle,
            float(self.slots_per_cycle) * max(1, elapsed),
        )
        # Loads and stores share the request pipe: stores traverse the
        # network and consume DRAM write bandwidth but carry no response.
        arrival = cycle + self.config.latency
        heappush = heapq.heappush
        to_memory = self._to_memory
        while self._credit >= 1.0:
            request = self._pick_next(cycle, mrqs)
            if request is None:
                break
            self._credit -= 1.0
            self.total_injected += 1
            heappush(to_memory, (arrival, next(_seq), request))

    def _pick_next(
        self, cycle: int, mrqs: List[MemoryRequestQueue]
    ) -> Optional[MemoryRequest]:
        """Round-robin scan of the cores' MRQs for a sendable request.

        An MRQ with an empty send queue is passed over without a
        ``pop_sendable`` call (which would return None).
        """
        num_cores = self.num_cores
        core_id = self._rr_pointer
        for _ in range(num_cores):
            if core_id >= num_cores:
                core_id -= num_cores
            mrq = mrqs[core_id]
            core_id += 1
            if mrq._send_queue:
                self._rr_pointer = core_id if core_id < num_cores else 0
                return mrq.pop_sendable(cycle)
        return None

    def send_response(self, cycle: int, core_id: int, request: MemoryRequest) -> None:
        """Schedule a response delivery to a core after the fixed latency."""
        arrival = cycle + self.config.latency
        heapq.heappush(self._to_core, (arrival, next(_seq), core_id, request))

    def pop_memory_arrivals(self, cycle: int) -> List[MemoryRequest]:
        """Requests reaching the memory controllers at or before ``cycle``."""
        heap = self._to_memory
        if not heap or heap[0][0] > cycle:
            return _NO_ARRIVALS
        arrivals = []
        heappop = heapq.heappop
        while heap and heap[0][0] <= cycle:
            arrivals.append(heappop(heap)[2])
        return arrivals

    def pop_core_arrivals(self, cycle: int) -> List[Tuple[int, MemoryRequest]]:
        """(core_id, request) responses arriving at or before ``cycle``."""
        heap = self._to_core
        if not heap or heap[0][0] > cycle:
            return _NO_ARRIVALS
        arrivals = []
        heappop = heapq.heappop
        while heap and heap[0][0] <= cycle:
            _, _, core_id, request = heappop(heap)
            arrivals.append((core_id, request))
        return arrivals

    def inflight_requests(self) -> List[MemoryRequest]:
        """Every request currently traversing either pipe (for invariants)."""
        requests = [item[2] for item in self._to_memory]
        requests.extend(item[3] for item in self._to_core)
        return requests

    def inflight_counts(self) -> Tuple[int, int]:
        """(requests toward memory, responses toward cores) in flight."""
        return len(self._to_memory), len(self._to_core)

    def next_event_cycle(self) -> Optional[int]:
        """Earliest in-flight arrival, for the simulator's cycle skipping."""
        to_memory = self._to_memory
        to_core = self._to_core
        if to_memory:
            a = to_memory[0][0]
            if to_core:
                b = to_core[0][0]
                return a if a < b else b
            return a
        if to_core:
            return to_core[0][0]
        return None

    @property
    def idle(self) -> bool:
        """True when nothing is in flight in either direction."""
        return not self._to_memory and not self._to_core
