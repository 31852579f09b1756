"""Indexed FR-FCFS scheduler ≡ linear-scan reference, decision for decision.

The indexed DRAM scheduler (:meth:`DramChannel._pick_indexed`) must make
*exactly* the pick the retained linear scan
(:meth:`DramChannel._pick_reference`) would make at every decision point
— same entry object, same tie-break, same handling of late-prefetch
promotions — because the determinism suite pins byte-identical stats
with the indexed path enabled by default.  This suite attacks that
equivalence three ways:

1. Deterministic unit cases for the ordering rules the index must
   reproduce: arrival-order tie-breaks within a priority class, row-hit
   preference over older row misses, and mid-flight promotion moving a
   prefetch into the demand class at its *original* age.
2. A randomized decision-for-decision property: one indexed channel is
   driven through a mirrored copy of the ``step()`` pick loop, and at
   every pick both implementations are consulted and must return the
   identical entry object.
3. A randomized end-to-end property: two channels — one indexed, one
   ``reference_scheduler`` — consume the same synthesized traffic
   (arrivals, stores, inter-core merges, late-prefetch promotions) and
   must produce identical completion sequences and statistics.

The same traffic scripts also pin the channel's derived wake state, for
both schedulers: stepping only at cycles where ``due <= cycle`` (as
``Dram.step`` does) must complete exactly what stepping every cycle
does, and a channel checkpointed mid-script must continue identically
with its hit heaps and ``due`` rebuilt from the restored state.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import DramConfig
from repro.sim.dram import Dram, DramChannel
from repro.sim.memory_request import MemoryRequest

#: Request kinds the traffic generator draws from (prefetch twice so
#: promotion-eligible traffic is over-represented).
_KINDS = ("demand", "prefetch", "prefetch", "store")


def _make_request(line, kind, core, cycle):
    """Materialize one script request as a fresh MemoryRequest."""
    return MemoryRequest(
        line, core, 0, 0x10, kind == "prefetch", cycle,
        is_store=(kind == "store"),
    )


def _bank_row(line, banks):
    """Deterministic small (bank, row) mapping shared by every channel.

    Three rows per bank forces frequent open-row reuse *and* conflict,
    so both the row-hit-first rule and the precharge path are exercised.
    """
    index = line // 64
    return index % banks, (index // banks) % 3


def _run_script(events, promos, cfg, decision_check=False,
                every_cycle=False, gated=False, checkpoint_at=None):
    """Drive one channel through a traffic script; return its trace.

    ``events`` is a list of ``(cycle, line, kind, core)`` arrivals in
    non-decreasing cycle order; ``promos`` maps an event index to a delay
    after which that request (if still a prefetch) has a demand merged
    into it via :meth:`MemoryRequest.merge_demand` — the late-prefetch
    promotion path.  With ``decision_check`` the ``step()`` pick loop is
    mirrored inline and ``_pick_indexed`` is asserted against
    ``_pick_reference`` at every single decision.

    By default the driver jumps over dead time with
    ``next_event_cycle`` and steps at every cycle it visits;
    ``every_cycle`` visits every cycle instead.  ``gated`` steps only
    when ``channel.due <= cycle``, and then also checks that
    ``Dram.next_event_cycle``, computed from the channel's cached wake
    state, equals the channel's own ``next_event_cycle`` at every
    visited cycle.  ``checkpoint_at`` swaps the channel,
    at the first visited cycle at or past it, for a fresh channel
    restored from its JSON round-tripped ``state_dict``.
    """
    channel = DramChannel(0, cfg)
    dram = Dram(cfg)
    dram.channels = [channel]
    requests = [_make_request(line, kind, core, cycle)
                for cycle, line, kind, core in events]
    by_rid = {request.rid: request for request in requests}
    promo_at = {}  # cycle -> [event index, ...] in index order
    for index, delay in sorted(promos.items()):
        promo_at.setdefault(events[index][0] + delay, []).append(index)
    arrivals = list(enumerate(events))
    last_op = max([e[0] for e in events] + list(promo_at))
    trace = []
    cycle = 0
    guard = 0
    while cycle <= last_op or not channel.idle:
        guard += 1
        assert guard < 100_000, "channel failed to drain"
        if checkpoint_at is not None and cycle >= checkpoint_at:
            state = json.loads(json.dumps(channel.state_dict()))
            channel = DramChannel(0, cfg)
            channel.load_state_dict(state, by_rid)
            dram.channels = [channel]
            checkpoint_at = None
        while arrivals and arrivals[0][1][0] == cycle:
            index, (_, line, kind, core) = arrivals.pop(0)
            bank, row = _bank_row(line, cfg.banks_per_channel)
            channel.arrive(requests[index], bank, row, cycle)
        for index in promo_at.get(cycle, ()):
            request = requests[index]
            if request.is_prefetch:
                request.merge_demand(None, -1, cycle)
        if decision_check:
            # Mirror of the step() pick loop with both schedulers
            # consulted at each decision.  Indexed goes first so a
            # promotion the index failed to honour is caught by the
            # reference scan rather than masked by it.
            while channel.pending and channel.next_pick_cycle <= cycle:
                picked = channel._pick_indexed(cycle)
                reference = channel._pick_reference(cycle)
                assert picked is reference, (
                    f"cycle {cycle}: indexed picked "
                    f"{picked and picked.line_addr}, reference "
                    f"{reference and reference.line_addr}"
                )
                if picked is None:
                    break
                del channel.pending[picked.seq]
                picked.queued = False
                for request in picked.requesters:
                    request.dram_entry = None
                channel._service(
                    picked, max(channel.next_pick_cycle, picked.ready_cycle)
                )
        completed = (
            channel.step(cycle) if not gated or channel.due <= cycle else ()
        )
        for entry in completed:
            trace.append((
                cycle, entry.line_addr, entry.is_store, entry.demand,
                entry.arrival,
                tuple(sorted((r.core_id, r.was_prefetch, r.is_prefetch)
                             for r in entry.requesters)),
            ))
        nxt = channel.next_event_cycle(cycle)
        if gated:
            # The script steps the channel itself, so the one-channel
            # Dram's minimum ``due`` is refreshed by hand.
            dram.due = channel.due
            assert dram.next_event_cycle(cycle) == nxt
        cycle += 1
        if not every_cycle and nxt is not None and nxt > cycle:
            # Jump over dead time, but never past a scripted operation.
            pending_ops = [c for c in promo_at if c >= cycle]
            if arrivals:
                pending_ops.append(arrivals[0][1][0])
            cycle = min([nxt] + [c for c in pending_ops if c >= cycle])
    stats = (channel.row_hits, channel.row_misses, channel.lines_transferred,
             channel.inter_core_merges, channel.bus_busy_until,
             channel.next_pick_cycle)
    return trace, stats


@st.composite
def _traffic(draw):
    """A randomized traffic script plus a channel geometry.

    Tiny line/bank/row spaces are deliberate: they maximize open-row
    interaction, inter-core merging and same-cycle arrival ties — the
    cases where the indexed and reference pick orders could diverge.
    """
    count = draw(st.integers(3, 24))
    events = []
    cycle = 0
    for i in range(count):
        cycle += draw(st.integers(0, 7))
        line = draw(st.integers(0, 17)) * 64
        kind = draw(st.sampled_from(_KINDS))
        events.append((cycle, line, kind, i % 3))
    promos = {}
    for index in draw(st.lists(st.integers(0, count - 1), max_size=6,
                               unique=True)):
        if events[index][2] == "prefetch":
            promos[index] = draw(st.integers(1, 60))
    banks = draw(st.sampled_from((1, 2, 4)))
    demand_priority = draw(st.booleans())
    pipeline = draw(st.sampled_from((0, 5)))
    return events, promos, banks, demand_priority, pipeline


class TestSchedulerEquivalenceProperties:
    """Randomized equivalence between the indexed and reference picks."""

    @given(script=_traffic())
    @settings(max_examples=60, deadline=None)
    def test_indexed_matches_reference_decision_for_decision(self, script):
        """At every pick, both implementations choose the same entry."""
        events, promos, banks, demand_priority, pipeline = script
        cfg = DramConfig(banks_per_channel=banks,
                         demand_priority=demand_priority,
                         pipeline_latency=pipeline)
        _run_script(events, promos, cfg, decision_check=True)

    @given(script=_traffic())
    @settings(max_examples=60, deadline=None)
    def test_indexed_and_reference_channels_complete_identically(self, script):
        """Two channels, two schedulers, one script — identical traces."""
        events, promos, banks, demand_priority, pipeline = script
        base = dict(banks_per_channel=banks, demand_priority=demand_priority,
                    pipeline_latency=pipeline)
        indexed = _run_script(events, promos, DramConfig(**base))
        reference = _run_script(
            events, promos, DramConfig(reference_scheduler=True, **base)
        )
        assert indexed == reference


class TestChannelWakeStateProperties:
    """The derived ``due`` / hit-heap state never changes an outcome."""

    @given(script=_traffic(), reference=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_stepping_only_when_due_matches_every_cycle(self, script,
                                                        reference):
        """Skipping every step before ``due`` is unobservable."""
        events, promos, banks, demand_priority, pipeline = script
        cfg = DramConfig(banks_per_channel=banks,
                         demand_priority=demand_priority,
                         pipeline_latency=pipeline,
                         reference_scheduler=reference)
        every = _run_script(events, promos, cfg, every_cycle=True)
        assert _run_script(events, promos, cfg, every_cycle=True,
                           gated=True) == every
        assert _run_script(events, promos, cfg, gated=True) == every

    @given(script=_traffic(), reference=st.booleans(),
           fraction=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_checkpoint_mid_script_continues_identically(self, script,
                                                         reference,
                                                         fraction):
        """A restored channel rebuilds its index and ``due`` exactly."""
        events, promos, banks, demand_priority, pipeline = script
        cfg = DramConfig(banks_per_channel=banks,
                         demand_priority=demand_priority,
                         pipeline_latency=pipeline,
                         reference_scheduler=reference)
        last = max([e[0] for e in events]
                   + [events[i][0] + d for i, d in promos.items()])
        checkpoint_at = int(fraction * (last + 2 * pipeline + 100))
        uninterrupted = _run_script(events, promos, cfg, gated=True)
        resumed = _run_script(events, promos, cfg, gated=True,
                              checkpoint_at=checkpoint_at)
        assert resumed == uninterrupted


class TestOrderingRules:
    """Deterministic pins for the ordering rules the index reproduces."""

    def _service_order(self, arrivals, reference, promote=()):
        """Service order (line addresses) for a scripted arrival burst."""
        cfg = DramConfig(pipeline_latency=0, banks_per_channel=2,
                         reference_scheduler=reference)
        channel = DramChannel(0, cfg)
        requests = []
        for line, kind, bank, row in arrivals:
            request = _make_request(line, kind, 0, 0)
            channel.arrive(request, bank, row, 0)
            requests.append(request)
        for index in promote:
            requests[index].merge_demand(None, -1, 0)
        order = []
        cycle = 0
        while not channel.idle and cycle < 10_000:
            for entry in channel.step(cycle):
                order.append(entry.line_addr)
            nxt = channel.next_event_cycle(cycle)
            cycle = max(cycle + 1, nxt if nxt is not None else cycle + 1)
        return order

    def test_same_class_ties_serve_in_arrival_order(self):
        """Same-cycle same-class row misses serve strictly oldest-first."""
        arrivals = [(64 * i, "demand", i % 2, i) for i in range(6)]
        expected = [64 * i for i in range(6)]
        assert self._service_order(arrivals, reference=True) == expected
        assert self._service_order(arrivals, reference=False) == expected

    def test_row_hit_beats_older_row_miss(self):
        """After the oldest opens its row, a younger hit jumps the queue."""
        arrivals = [
            (0, "demand", 0, 1),     # served first (oldest), opens row 1
            (64, "demand", 0, 2),    # older than the hit, but a row miss
            (128, "demand", 0, 1),   # row hit on the opened row: next
        ]
        expected = [0, 128, 64]
        assert self._service_order(arrivals, reference=True) == expected
        assert self._service_order(arrivals, reference=False) == expected

    def test_promotion_moves_prefetch_ahead_at_original_age(self):
        """A promoted prefetch outranks prefetches but keeps its age.

        The promoted entry enters the demand class with its *original*
        arrival order, so it serves ahead of a demand that arrived after
        it, after a demand that arrived before it, and before every
        remaining prefetch — in both scheduler implementations.
        """
        arrivals = [
            (192, "demand", 1, 1),   # demand older than the promotion
            (0, "prefetch", 0, 0),
            (64, "prefetch", 1, 0),  # promoted below
            (128, "demand", 0, 1),   # demand younger than the promotion
        ]
        expected = [192, 64, 128, 0]
        assert (self._service_order(arrivals, reference=True, promote=(2,))
                == expected)
        assert (self._service_order(arrivals, reference=False, promote=(2,))
                == expected)
