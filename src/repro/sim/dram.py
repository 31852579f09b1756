"""Off-chip DRAM model: channels, banks, row buffers, request buffers.

Paper Table II configures 8 channels and 16 banks with 2KB pages, 57.6 GB/s
of bandwidth, and tCL/tRCD/tRP timings; demand requests have higher priority
than prefetch requests.  Paper Fig. 2b: requests from different cores are
buffered in the memory-request buffer of the DRAM controller, and an
overlapping new request merges with the buffered one (*inter-core merging*)
— this is what occasionally salvages inter-thread prefetches issued from the
wrong core (Section III-A2).

Scheduling per channel is FR-FCFS-like with strict demand-over-prefetch
priority: demand first, then open-row hits, then arrival order.  The data
bus serializes one 64B burst per ``burst_cycles``; bank preparation
(precharge/activate) overlaps with earlier bursts.

Two pick implementations coexist.  The *indexed* scheduler (default)
maintains, per priority class, an arrival heap and an open-row hit heap,
so each pick inspects two heap heads instead of scanning the whole
request buffer; late-prefetch promotions are pushed eagerly into the
demand index by a hook on
:meth:`~repro.sim.memory_request.MemoryRequest.merge_demand`.  The
original linear scan is retained behind
``DramConfig.reference_scheduler`` as the differential reference the
diffcheck oracle and the property tests compare against.  Both paths key
ties by ``BufferEntry.seq`` (per-channel insertion order), which equals
the old pending-list scan order, so decisions are bit-identical.

Each channel also caches ``due``, the earliest cycle at which
:meth:`DramChannel.step` can do anything, and :class:`Dram` keeps the
minimum over its channels, so the simulator steps only channels that
are due and an iteration with none due costs one compare.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from repro.sim.config import DramConfig
from repro.sim.memory_request import MemoryRequest

#: Same-cycle tiebreaker inside the completion-heap tuples.
_seq = itertools.count()

#: Shared immutable "nothing completed" result, so the common idle-channel
#: step does not allocate a fresh list per channel per eventful cycle.
_NO_ENTRIES: Tuple[()] = ()

#: ``due`` / ``head_ready`` value meaning "no event": later than any cycle.
_NEVER = 1 << 62

class BufferEntry:
    """One line-sized transaction in a channel's request buffer.

    Multiple :class:`MemoryRequest` objects (possibly from different cores)
    can ride one entry via inter-core merging.
    """

    __slots__ = (
        "line_addr", "bank", "row", "requesters", "is_store", "arrival",
        "ready_cycle", "demand", "seq", "queued", "owner",
    )

    def __init__(
        self,
        line_addr: int,
        bank: int,
        row: int,
        request: MemoryRequest,
        arrival: int,
        ready_cycle: int,
    ) -> None:
        self.line_addr = line_addr
        self.bank = bank
        self.row = row
        self.requesters: List[MemoryRequest] = [request]
        self.is_store = request.is_store
        self.arrival = arrival
        # The controller/GDDR protocol pipeline is modelled on the request
        # path: the entry becomes schedulable only after traversing it.  A
        # demand that merges into an in-flight prefetch therefore inherits
        # the prefetch's pipeline progress — the head start is real.
        self.ready_cycle = ready_cycle
        self.demand = request.is_demand
        # Index bookkeeping.  ``seq`` is the per-channel insertion order — the
        # FR-FCFS tie-breaker, equal to the entry's scan position in the
        # reference implementation.  ``queued`` is the lazy-deletion
        # marker for the index heaps; ``owner`` routes promotion hooks
        # back to the owning channel.
        self.seq = -1
        self.queued = False
        self.owner: Optional["DramChannel"] = None

    def merge(self, request: MemoryRequest) -> None:
        self.requesters.append(request)
        if request.is_demand:
            self.demand = True

    def is_demand_now(self) -> bool:
        """Current priority class of this entry.

        A prefetch can be promoted to demand priority *after* it was sent:
        a demand access merging into the in-flight request at the core's
        MRQ (a late prefetch) flips the request object's ``is_prefetch``,
        and the scheduler must honour the promotion or merged demands
        starve behind the pure-demand stream.
        """
        if self.demand:
            return True
        for request in self.requesters:
            if request.is_demand:
                self.demand = True
                return True
        return False


class _Bank:
    """Per-bank row-buffer state.

    ``row_ready_cycle`` is when the currently-open row became (or becomes)
    usable; column accesses to an open row pipeline at burst cadence, so a
    streaming sequence of row hits is limited by the channel data bus, not
    by the bank.
    """

    __slots__ = ("row_ready_cycle", "open_row")

    def __init__(self) -> None:
        self.row_ready_cycle = 0
        self.open_row: Optional[int] = None


class DramChannel:
    """One DRAM channel: banks, a request buffer, and a shared data bus.

    When the optional memory-side L2 is configured (the "more complex
    hierarchies" extension of the paper's conclusion), read requests probe
    the channel's L2 slice on arrival: a hit completes after ``l2_latency``
    without touching the banks or the data bus; misses follow the normal
    DRAM path and fill the L2 on completion.
    """

    def __init__(self, channel_id: int, config: DramConfig) -> None:
        self.channel_id = channel_id
        self.config = config
        self.banks = [_Bank() for _ in range(config.banks_per_channel)]
        # ``pending`` maps entry.seq -> entry in insertion order (dict
        # iteration order), giving O(1) removal by seq where the old list
        # needed an O(n) pop-by-index.
        self.pending: Dict[int, BufferEntry] = {}
        self._by_line: Dict[int, BufferEntry] = {}
        self._completing: List[Tuple[int, int, BufferEntry]] = []
        # Indexed-scheduler state (derived).  Each heap holds (seq, entry) with lazy deletion:
        # an entry is live in the demand heaps iff it is still queued,
        # and live in the other heaps iff it is queued and has not been
        # promoted to the demand class.  A hit-heap entry is live only
        # while its row is also open; ``_rows`` holds every queued entry
        # by (bank, row), so opening a row pushes that row's entries.
        self._entry_seq = 0
        self._demand_all: List[Tuple[int, BufferEntry]] = []
        self._demand_hits: List[Tuple[int, BufferEntry]] = []
        self._other_all: List[Tuple[int, BufferEntry]] = []
        self._other_hits: List[Tuple[int, BufferEntry]] = []
        self._rows: Dict[Tuple[int, int], Dict[int, BufferEntry]] = {}
        self._dp = config.demand_priority
        self._reference = config.reference_scheduler
        self.bus_busy_until = 0
        self.next_pick_cycle = 0
        # Wake state (derived).  ``_head_seq`` is the seq of the oldest
        # pending entry and ``head_ready`` its ready cycle (``_NEVER``
        # when nothing is pending); ``ready_cycle`` is non-decreasing in
        # ``seq``, so a pick finds nothing exactly when that entry is not
        # ready yet.  ``due`` is the earliest cycle at which :meth:`step`
        # can pick or complete anything; stepping at any earlier cycle is
        # a no-op.
        self._head_seq = 0
        self.head_ready = _NEVER
        self.due = _NEVER
        if config.l2_size_bytes > 0:
            from repro.sim.caches import SetAssociativeCache

            self.l2: Optional[object] = SetAssociativeCache(
                config.l2_size_bytes, config.l2_associativity, config.line_bytes
            )
        else:
            self.l2 = None
        # Statistics.
        self.row_hits = 0
        self.row_misses = 0
        self.lines_transferred = 0
        self.inter_core_merges = 0
        self.l2_hits = 0
        self.l2_misses = 0
        # Work counters (profiler ``dram_channel_steps`` / ``dram_picks``).
        self.steps = 0
        self.picks = 0

    def arrive(self, request: MemoryRequest, bank: int, row: int, cycle: int) -> None:
        """Accept a request from the interconnect, merging when possible."""
        if not request.is_store:
            entry = self._by_line.get(request.line_addr)
            if entry is not None and not entry.is_store:
                was_demand = entry.demand
                entry.merge(request)
                self.inter_core_merges += 1
                if entry.queued:
                    if request.is_prefetch:
                        # A late demand at this rider's MRQ must still be
                        # able to promote the shared buffer entry.
                        request.dram_entry = entry
                    elif not was_demand:
                        self.promote(entry)
                return
        if self.l2 is not None and not request.is_store:
            if self.l2.lookup(request.line_addr) is not None:
                self.l2_hits += 1
                done = cycle + self.config.l2_latency
                entry = BufferEntry(
                    request.line_addr, bank, row, request, cycle, done
                )
                heapq.heappush(self._completing, (done, next(_seq), entry))
                if done < self.due:
                    self.due = done
                return
            self.l2_misses += 1
        ready = cycle + self.config.pipeline_latency
        entry = BufferEntry(request.line_addr, bank, row, request, cycle, ready)
        self._enqueue(entry)
        if request.is_prefetch:
            request.dram_entry = entry
        if not entry.is_store:
            self._by_line[request.line_addr] = entry
        self._refresh_due()

    def _enqueue(self, entry: BufferEntry) -> None:
        """Add an entry to the pending buffer and the scheduling index."""
        seq = self._entry_seq
        self._entry_seq = seq + 1
        entry.seq = seq
        entry.queued = True
        entry.owner = self
        if not self.pending:
            self._head_seq = seq
            self.head_ready = entry.ready_cycle
        self.pending[seq] = entry
        key = (entry.bank, entry.row)
        bucket = self._rows.get(key)
        if bucket is None:
            bucket = self._rows[key] = {}
        bucket[seq] = entry
        item = (seq, entry)
        row_open = self.banks[entry.bank].open_row == entry.row
        if entry.demand and self._dp:
            heapq.heappush(self._demand_all, item)
            if row_open:
                heapq.heappush(self._demand_hits, item)
        else:
            heapq.heappush(self._other_all, item)
            if row_open:
                heapq.heappush(self._other_hits, item)

    def promote(self, entry: BufferEntry) -> None:
        """Move a buffered entry into the demand priority class.

        Called eagerly when a demand merges into one of the entry's
        requests — either inter-core (at :meth:`arrive`) or intra-core at
        the originating MRQ (the ``merge_demand`` late-prefetch hook) —
        replacing the reference scheduler's per-pick lazy scan of every
        requester.  The stale copy left in the non-demand heaps is
        discarded lazily at pop time.
        """
        entry.demand = True
        if not entry.queued or not self._dp:
            return
        item = (entry.seq, entry)
        heapq.heappush(self._demand_all, item)
        if self.banks[entry.bank].open_row == entry.row:
            heapq.heappush(self._demand_hits, item)

    def _pick_reference(self, cycle: int) -> Optional[BufferEntry]:
        """Linear-scan pick: demand > row-hit > oldest (reference impl).

        The original O(buffer) scan, retained behind
        ``DramConfig.reference_scheduler`` as the differential oracle the
        indexed scheduler is checked against.  The
        :meth:`BufferEntry.is_demand_now` promotion check is inlined as
        plain attribute reads and the priority key is two small ints
        instead of a per-entry tuple.
        """
        best_entry = None
        best_p = 4  # one past the worst possible priority class
        best_arrival = 0
        banks = self.banks
        demand_priority = self._dp
        for entry in self.pending.values():
            if entry.ready_cycle > cycle:
                continue
            demand = entry.demand
            if not demand:
                # Inlined is_demand_now(): a late-prefetch promotion flips
                # a requester's is_prefetch after the entry was buffered,
                # and the scheduler must honour it (see is_demand_now).
                for request in entry.requesters:
                    if not request.is_prefetch and not request.is_store:
                        entry.demand = demand = True
                        break
            p = 0 if (demand_priority and demand) else 2
            if banks[entry.bank].open_row != entry.row:
                p += 1
            if p < best_p or (p == best_p and entry.arrival < best_arrival):
                best_p = p
                best_arrival = entry.arrival
                best_entry = entry
        return best_entry

    def _best_in_class(
        self,
        all_heap: List[Tuple[int, BufferEntry]],
        hit_heap: List[Tuple[int, BufferEntry]],
        cycle: int,
        demand_class: bool,
        pop: heapq.heappop = heapq.heappop,  # type: ignore[assignment]
    ) -> Optional[BufferEntry]:
        """Best schedulable entry within one priority class (row-hit first).

        Within a class the winner is the oldest ready row hit if any
        exists, else the oldest ready entry.  Both reductions exploit that
        ``ready_cycle`` is non-decreasing in ``seq`` (every pending entry's
        ready cycle is its arrival plus the constant pipeline latency), so
        an unready heap head proves the whole heap unready, and the oldest
        row hit is also the earliest-ready one.
        """
        dp = self._dp
        while all_heap:
            entry = all_heap[0][1]
            if entry.queued and (not dp or entry.demand == demand_class):
                break
            pop(all_heap)
        else:
            return None
        head = all_heap[0][1]
        if head.ready_cycle > cycle:
            return None  # oldest entry unready => whole class unready
        banks = self.banks
        if banks[head.bank].open_row == head.row:
            # Oldest entry in the class is itself a row hit: unbeatable.
            return head
        # Oldest row hit across the currently-open rows: if ready it
        # outranks the (row-miss) class head regardless of age; if not,
        # no row hit is ready and the class head wins.
        while hit_heap:
            entry = hit_heap[0][1]
            if (
                entry.queued
                and (not dp or entry.demand == demand_class)
                and banks[entry.bank].open_row == entry.row
            ):
                return entry if entry.ready_cycle <= cycle else head
            pop(hit_heap)
        return head

    def _pick_indexed(self, cycle: int) -> Optional[BufferEntry]:
        """Index-driven pick, decision-identical to :meth:`_pick_reference`.

        Inspects the arrival-heap and hit-heap heads of each priority
        class instead of scanning the whole request buffer.  Late-prefetch
        promotions are applied eagerly by :meth:`promote` (hooked from
        ``MemoryRequest.merge_demand``), so the demand heaps are always
        current when a pick happens.
        """
        if self._dp:
            entry = self._best_in_class(
                self._demand_all, self._demand_hits, cycle, True
            )
            if entry is not None:
                return entry
        return self._best_in_class(self._other_all, self._other_hits, cycle, False)

    def step(self, cycle: int) -> List[BufferEntry]:
        """Advance scheduling up to ``cycle``; return completed entries.

        A no-op whenever ``cycle < due``; callers may skip it then.
        """
        self.steps += 1
        pending = self.pending
        if pending and self.next_pick_cycle <= cycle:
            pick = self._pick_reference if self._reference else self._pick_indexed
            while True:
                self.picks += 1
                entry = pick(cycle)
                if entry is None:
                    break
                del pending[entry.seq]
                entry.queued = False
                for request in entry.requesters:
                    request.dram_entry = None
                self._service(entry, max(self.next_pick_cycle, entry.ready_cycle))
                if not pending or self.next_pick_cycle > cycle:
                    break
            if pending:
                # Advance past serviced seqs to the oldest pending entry;
                # each seq is passed over once, so this is amortized O(1).
                head = self._head_seq
                while head not in pending:
                    head += 1
                self._head_seq = head
                self.head_ready = pending[head].ready_cycle
            else:
                self.head_ready = _NEVER
        heap = self._completing
        if heap and heap[0][0] <= cycle:
            completed = []
            heappop = heapq.heappop
            while heap and heap[0][0] <= cycle:
                entry = heappop(heap)[2]
                if not entry.is_store:
                    self._by_line.pop(entry.line_addr, None)
                    if self.l2 is not None:
                        self.l2.insert(entry.line_addr, True)
                completed.append(entry)
        else:
            completed = _NO_ENTRIES
        self._refresh_due()
        return completed

    def _refresh_due(self) -> None:
        """Recompute ``due`` from the completion heap and the pick state."""
        due = self._completing[0][0] if self._completing else _NEVER
        if self.pending:
            pick = self.next_pick_cycle
            ready = self.head_ready
            if ready < pick:
                ready = pick
            if ready < due:
                due = ready
        self.due = due

    def _service(self, entry: BufferEntry, pick_cycle: int) -> None:
        """Issue a picked entry's commands and schedule its completion.

        The entry leaves its row bucket here, so a bucket holds only
        queued entries.  Opening a new row pushes that row's queued
        entries into their class's hit heap.
        """
        key = (entry.bank, entry.row)
        bucket = self._rows[key]
        del bucket[entry.seq]
        if not bucket:
            del self._rows[key]
        bank = self.banks[entry.bank]
        cfg = self.config
        if bank.open_row == entry.row:
            # Row hit: column accesses pipeline; only tCL from the command
            # plus data-bus availability constrain the burst.
            row_ready = bank.row_ready_cycle
            self.row_hits += 1
        else:
            if bank.open_row is None:
                row_ready = pick_cycle + cfg.t_rcd
            else:
                row_ready = pick_cycle + cfg.t_rp + cfg.t_rcd
            self.row_misses += 1
            if bucket:
                dp = self._dp
                for seq, queued in bucket.items():
                    heapq.heappush(
                        self._demand_hits if queued.demand and dp
                        else self._other_hits,
                        (seq, queued),
                    )
        cas_cycle = max(pick_cycle, row_ready)
        burst_start = max(cas_cycle + cfg.t_cl, self.bus_busy_until)
        done = burst_start + cfg.burst_cycles
        bank.open_row = entry.row
        bank.row_ready_cycle = row_ready
        self.bus_busy_until = done
        self.next_pick_cycle = burst_start
        self.lines_transferred += 1
        heapq.heappush(self._completing, (done, next(_seq), entry))

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which this channel can make progress."""
        best: Optional[int] = self._completing[0][0] if self._completing else None
        if self.pending:
            min_ready: Optional[int] = None
            any_ready = False
            if self._reference:
                for entry in self.pending.values():
                    ready = entry.ready_cycle
                    if ready <= cycle:
                        any_ready = True
                        break
                    if min_ready is None or ready < min_ready:
                        min_ready = ready
            else:
                # ``pending`` is insertion-ordered by the monotonic seq
                # and ``ready_cycle`` is non-decreasing in seq, so the
                # first entry carries the minimum ready cycle — the only
                # two facts this computation needs from the buffer.
                oldest = next(iter(self.pending.values()))
                if oldest.ready_cycle <= cycle:
                    any_ready = True
                else:
                    min_ready = oldest.ready_cycle
            if any_ready:
                pick = self.next_pick_cycle
                if pick <= cycle:
                    pick = cycle + 1
                if best is None or pick < best:
                    best = pick
            elif min_ready is not None and (best is None or min_ready < best):
                best = min_ready
        return best

    @property
    def idle(self) -> bool:
        return not self.pending and not self._completing


class Dram:
    """The full DRAM subsystem: address mapping plus all channels.

    Address mapping interleaves 64B lines across channels, then groups
    ``row_bytes`` of per-channel lines into rows striped over banks, so a
    contiguous sweep of physical memory produces row hits on every channel.
    """

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.channels = [DramChannel(i, config) for i in range(config.num_channels)]
        self._lines_per_row = max(1, config.row_bytes // config.line_bytes)
        #: Minimum ``due`` over the channels: :meth:`step` is a no-op
        #: before it (derived state).
        self.due = _NEVER

    def map_address(self, line_addr: int) -> Tuple[int, int, int]:
        """Return (channel, bank, row) for a 64B-aligned line address.

        The channel index XOR-folds higher address bits so power-of-two
        strides (e.g. a 2KB-strided uncoalesced sweep) do not camp on one
        channel — the standard anti-camping hash real memory controllers
        use.
        """
        line = line_addr // self.config.line_bytes
        channels = self.config.num_channels
        channel = (
            line ^ (line >> 3) ^ (line >> 6) ^ (line >> 9) ^ (line >> 12)
            ^ (line >> 15) ^ (line >> 18)
        ) % channels
        local = line // channels
        bank = (local // self._lines_per_row) % self.config.banks_per_channel
        row = local // (self._lines_per_row * self.config.banks_per_channel)
        return channel, bank, row

    def arrive(self, request: MemoryRequest, cycle: int) -> None:
        """Route a request to its channel; lowers :attr:`due` to match."""
        channel, bank, row = self.map_address(request.line_addr)
        target = self.channels[channel]
        target.arrive(request, bank, row, cycle)
        if target.due < self.due:
            self.due = target.due

    def step(self, cycle: int) -> List[BufferEntry]:
        """Advance every due channel; return all completed entries.

        Channels with ``due > cycle`` are skipped (their step would be a
        no-op); :attr:`due` is then recomputed over all channels.
        """
        completed: List[BufferEntry] = []
        due = _NEVER
        for channel in self.channels:
            if channel.due <= cycle:
                done = channel.step(cycle)
                if done:
                    completed.extend(done)
            if channel.due < due:
                due = channel.due
        self.due = due
        return completed

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which any channel can make progress.

        Valid after :meth:`step` at ``cycle``, when every channel's
        ``due`` is past ``cycle``.  It then equals the minimum of every
        busy channel's :meth:`DramChannel.next_event_cycle`: a channel's
        event is its ``due``, or its ``head_ready`` when that is still
        in the future and earlier (the oldest entry becomes ready while
        the data bus is still busy).
        """
        best = self.due
        for channel in self.channels:
            ready = channel.head_ready
            if cycle < ready < best:
                best = ready
        return None if best == _NEVER else best

    def inflight_requests(self) -> List[MemoryRequest]:
        """Every request buffered or completing in any channel (invariants)."""
        requests: List[MemoryRequest] = []
        for channel in self.channels:
            for entry in channel.pending.values():
                requests.extend(entry.requesters)
            for _, _, entry in channel._completing:
                requests.extend(entry.requesters)
        return requests

    def buffered_requests(self) -> int:
        """Line transactions currently buffered or completing, all channels.

        The telemetry occupancy gauge for the memory controllers: counts
        :class:`BufferEntry` transactions (merged requesters ride one
        entry), pending plus in-completion, at the sample instant.
        """
        return sum(
            len(channel.pending) + len(channel._completing)
            for channel in self.channels
        )

    @property
    def idle(self) -> bool:
        return all(channel.idle for channel in self.channels)

    @property
    def total_lines_transferred(self) -> int:
        return sum(channel.lines_transferred for channel in self.channels)

    @property
    def total_row_hits(self) -> int:
        return sum(channel.row_hits for channel in self.channels)

    @property
    def total_row_misses(self) -> int:
        return sum(channel.row_misses for channel in self.channels)

    @property
    def total_inter_core_merges(self) -> int:
        return sum(channel.inter_core_merges for channel in self.channels)

    @property
    def total_l2_hits(self) -> int:
        return sum(channel.l2_hits for channel in self.channels)

    @property
    def total_l2_misses(self) -> int:
        return sum(channel.l2_misses for channel in self.channels)
