"""The transaction layer: ``with rt.batch():`` write coalescing and
single-drain commit semantics."""

import pytest

from repro import Cell, EAGER, Transaction, cached
from repro.core.events import EventKind


class TestBatchBasics:
    def test_batch_returns_transaction(self, rt):
        with rt.batch() as tx:
            assert isinstance(tx, Transaction)
            assert rt.in_batch
        assert not rt.in_batch

    def test_writes_apply_immediately_inside_block(self, rt):
        cell = Cell(1, label="c")
        with rt.batch():
            cell.set(2)
            assert cell.get() == 2

    def test_reads_after_commit_see_final_values(self, rt):
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached
        def total():
            return a.get() + b.get()

        assert total() == 3
        with rt.batch():
            a.set(10)
            b.set(20)
        assert total() == 30

    def test_acceptance_coalesced_writes_single_drain(self, rt):
        """Repeated writes to the same cell inside a batch trigger at most
        one propagation drain at commit (the acceptance criterion)."""
        cell = Cell(0, label="c")

        @cached(strategy=EAGER)
        def tracked():
            return cell.get() * 2

        tracked()
        rt.flush()
        before = rt.stats.snapshot()
        with rt.batch():
            for i in range(1, 11):
                cell.set(i)
        delta = rt.stats.delta(before)
        assert delta["modifies"] == 10
        assert delta["changes_detected"] == 1
        assert delta["drains"] <= 1
        assert delta["batch_commits"] == 1
        assert delta["batch_writes_coalesced"] == 9
        assert delta["eager_reexecutions"] == 1
        assert tracked() == 20

    def test_aba_write_cycle_detects_no_change(self, rt):
        cell = Cell("A", label="c")

        @cached
        def reader():
            return cell.get()

        reader()
        before = rt.stats.snapshot()
        with rt.batch():
            cell.set("B")
            cell.set("A")
        delta = rt.stats.delta(before)
        assert delta["changes_detected"] == 0
        assert delta["drains"] == 0
        assert delta["executions"] == 0
        assert reader() == "A"
        assert rt.stats.delta(before)["cache_hits"] == 1

    def test_multi_cell_batch_one_drain(self, rt):
        cells = [Cell(i, label=f"c{i}") for i in range(5)]

        @cached(strategy=EAGER)
        def total():
            return sum(c.get() for c in cells)

        total()
        rt.flush()
        before = rt.stats.snapshot()
        with rt.batch():
            for c in cells:
                c.set(c.get() + 100)
        delta = rt.stats.delta(before)
        assert delta["changes_detected"] == 5
        assert delta["drains"] == 1
        # one coalesced re-execution serves all five changed inputs
        assert delta["eager_reexecutions"] == 1
        assert total() == sum(range(5)) + 500

    def test_commit_walks_the_union_find_once_per_mark(self, rt):
        """Marking a changed location yields the partition the commit
        drains, so no second union-find walk looks it up again."""
        cells = [Cell(i, label=f"c{i}") for i in range(3)]

        @cached
        def total():
            return sum(c.get() for c in cells)

        total()
        before = rt.stats.snapshot()
        with rt.batch():
            cells[0].set(10)
            cells[1].set(20)
            cells[2].set(2)  # unchanged: not marked
        delta = rt.stats.delta(before)
        assert delta["changes_detected"] == 2
        # two marks at commit, then each drained cell marks total()
        assert delta["partition_finds"] == 4

        before = rt.stats.snapshot()
        with pytest.raises(KeyError):
            with rt.batch(rollback_on_error=True):
                cells[0].set(11)
                assert total() == 33  # re-runs and reads the mid-batch value
                raise KeyError
        delta = rt.stats.delta(before)
        # one leaked location re-marked, and its drain marks total()
        assert delta["partition_finds"] == 2
        assert total() == 32

    def test_unread_cell_commit_is_noop(self, rt):
        cell = Cell(1, label="never-read")
        with rt.batch():
            cell.set(2)
        assert not rt.pending_changes()
        assert cell.get() == 2


class TestBatchEdgeCases:
    def test_nested_batches_flatten(self, rt):
        cell = Cell(0, label="c")

        @cached
        def reader():
            return cell.get()

        reader()
        before = rt.stats.snapshot()
        with rt.batch() as outer:
            cell.set(1)
            with rt.batch() as inner:
                assert inner is outer
                cell.set(2)
                assert rt.in_batch
            # inner exit must NOT commit
            assert rt.in_batch
            assert rt.stats.delta(before)["batch_commits"] == 0
        delta = rt.stats.delta(before)
        assert delta["batch_commits"] == 1
        assert delta["changes_detected"] == 1
        assert reader() == 2

    def test_exception_skips_drain_but_reconciles(self, rt):
        cell = Cell(1, label="c")

        @cached(strategy=EAGER)
        def doubled():
            return cell.get() * 2

        doubled()
        rt.flush()
        before = rt.stats.snapshot()
        with pytest.raises(ValueError):
            with rt.batch():
                cell.set(9)
                raise ValueError("boom")
        delta = rt.stats.delta(before)
        # the write stuck and was marked, but no drain ran
        assert delta["changes_detected"] == 1
        assert delta["drains"] == 0
        assert rt.pending_changes()
        # the pending work is not lost: the next flush serves it
        rt.flush()
        assert doubled() == 18

    def test_cell_created_and_read_inside_batch(self, rt):
        with rt.batch():
            cell = Cell(1, label="fresh")

            @cached
            def reader():
                return cell.get()

            assert reader() == 1
            cell.set(2)
        # node was created during the batch: conservatively marked changed
        assert reader() == 2

    def test_explicit_commit_is_idempotent(self, rt):
        cell = Cell(1, label="c")

        @cached
        def reader():
            return cell.get()

        reader()
        with rt.batch() as tx:
            cell.set(2)
            assert len(tx) == 1
            assert tx.commit() == 1
            assert tx.commit() == 0  # second commit is a no-op
        assert reader() == 2

    def test_batch_commit_event_payload(self, rt):
        payloads = []
        rt.events.subscribe(
            EventKind.BATCH_COMMIT, lambda k, n, a, d: payloads.append(d)
        )
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached
        def total():
            return a.get() + b.get()

        total()
        with rt.batch():
            a.set(5)
            a.set(6)
            b.set(7)
        assert len(payloads) == 1
        payload = payloads[0]
        assert payload["writes"] == 2
        assert payload["coalesced"] == 1
        # Both cells feed one procedure, so the commit touched exactly
        # one partition.
        assert len(payload["partitions"]) == 1

    def test_empty_batch(self, rt):
        before = rt.stats.snapshot()
        with rt.batch():
            pass
        delta = rt.stats.delta(before)
        assert delta["batch_commits"] == 1
        assert delta["changes_detected"] == 0
        assert delta["drains"] == 0


class TestBatchVersusSequential:
    def test_batched_never_exceeds_sequential_executions(self, rt):
        """The headline economy: N eager-visible writes cost one
        re-execution batched, N sequential."""
        cell = Cell(0, label="c")

        @cached(strategy=EAGER)
        def tracked():
            return cell.get() + 1

        tracked()
        rt.flush()

        seq_before = rt.stats.snapshot()
        for i in range(1, 6):
            cell.set(i)
            rt.flush()
        sequential = rt.stats.delta(seq_before)["executions"]

        batch_before = rt.stats.snapshot()
        with rt.batch():
            for i in range(6, 11):
                cell.set(i)
        batched = rt.stats.delta(batch_before)["executions"]

        assert sequential == 5
        assert batched == 1
        assert tracked() == 11
