"""Tests for the Singhal–Kshemkalyani differential-vector baseline."""

from repro.baselines.singhal import SKProcess


def run_sk_exchange(n_processes, messages):
    """Run a message schedule; returns (processes, entries sent, full-vector
    entries a naive scheme would have sent)."""
    names = [f"P{i:03d}" for i in range(n_processes)]
    processes = {name: SKProcess(name, names) for name in names}
    diff_entries = 0
    full_entries = 0
    for sender, receiver in messages:
        message = processes[sender].prepare_message(receiver)
        diff_entries += message.entry_count()
        full_entries += len(processes[sender].clock)
        processes[receiver].deliver(message)
    return processes, diff_entries, full_entries


class TestProcess:
    def test_local_event_ticks_own_component(self):
        process = SKProcess("P0", ["P0", "P1"])
        process.local_event()
        assert process.clock["P0"] == 1

    def test_first_message_carries_changed_entries_only(self):
        process = SKProcess("P0", ["P0", "P1"])
        message = process.prepare_message("P1")
        assert message.entries == (("P0", 1),)

    def test_unchanged_entries_are_suppressed_on_repeat_sends(self):
        sender = SKProcess("P0", ["P0", "P1", "P2"])
        receiver = SKProcess("P1", ["P0", "P1", "P2"])
        third = SKProcess("P2", ["P0", "P1", "P2"])
        # P2 tells P0 about itself; P0 then talks to P1 twice.
        message = third.prepare_message("P0")
        sender.deliver(message)
        first = sender.prepare_message("P1")
        receiver.deliver(first)
        second = sender.prepare_message("P1")
        # The P2 entry went once; only P0's own fresh tick repeats.
        assert ("P2", 1) in first.entries
        assert all(site != "P2" for site, _ in second.entries)

    def test_deliver_merges_and_counts_advances(self):
        sender = SKProcess("P0", ["P0", "P1"])
        receiver = SKProcess("P1", ["P0", "P1"])
        advanced = receiver.deliver(sender.prepare_message("P1"))
        assert advanced == 1
        assert receiver.clock["P0"] == 1

    def test_stale_entries_do_not_regress(self):
        sender = SKProcess("P0", ["P0", "P1"])
        receiver = SKProcess("P1", ["P0", "P1"])
        message = sender.prepare_message("P1")
        receiver.deliver(message)
        receiver.clock["P0"] = 10
        assert receiver.deliver(sender.prepare_message("P1")) == 0

    def test_auxiliary_storage_is_per_peer(self):
        """The paper's critique: LS grows with the peer set."""
        small = SKProcess("P0", [f"P{i}" for i in range(2)])
        large = SKProcess("P0", [f"P{i}" for i in range(50)])
        assert large.storage_entries() > small.storage_entries()


class TestExchange:
    def test_diff_entries_never_exceed_full(self):
        messages = [("P000", "P001"), ("P001", "P002"), ("P000", "P001"),
                    ("P002", "P000"), ("P000", "P001"), ("P000", "P001")]
        _, diff, full = run_sk_exchange(3, messages)
        assert diff <= full

    def test_repeated_channel_saves_entries(self):
        # P000 learns about P002 once, then hammers one channel: each later
        # message carries only P000's fresh tick while the naive scheme
        # resends the whole (now larger) vector every time.
        messages = [("P002", "P000")] + [("P000", "P001")] * 20
        _, diff, full = run_sk_exchange(3, messages)
        assert diff < full

    def test_clocks_advance_monotonically(self):
        processes, _, _ = run_sk_exchange(
            2, [("P000", "P001"), ("P001", "P000")] * 3)
        assert processes["P000"].clock["P001"] > 0
        assert processes["P001"].clock["P000"] > 0
