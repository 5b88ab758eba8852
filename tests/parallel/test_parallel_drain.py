"""Concurrent partition drains: correctness, containment, observability.

``Runtime(parallel_drains=N)`` drains disjoint partitions on a thread
pool.  These tests stress that mode: genuine overlap (proved with a
barrier that deadlocks under serial draining), a chaos fault contained
to one partition of many, partition-tagged drain events, and
transaction commits fanning out across partitions."""

import threading
import time

import pytest

from repro import (
    DEMAND,
    EAGER,
    LRU,
    Cell,
    EventKind,
    NodeExecutionError,
    Runtime,
    cached,
)
from repro.testing import FaultInjected, FaultPlan, FaultSpec

pytestmark = pytest.mark.parallel


def _components(n, *, counts=None, body=None):
    """n disjoint eager components: cell src{i} -> proc{i}."""
    cells, procs = [], []
    for i in range(n):
        cell = Cell(1, label=f"src{i}")

        def proc_body(cell=cell, i=i):
            if counts is not None:
                counts[i] += 1
            if body is not None:
                body(i, cell)
            return cell.get() * 10

        proc_body.__name__ = f"proc{i}"
        proc = cached(strategy=EAGER)(proc_body)
        proc()
        cells.append(cell)
        procs.append(proc)
    return cells, procs


class TestParallelCorrectness:
    def test_disjoint_partitions_drain_to_the_same_values(self, prt):
        cells, procs = _components(8)
        prt.flush()
        for cell in cells:
            cell.set(cell.peek() + 1)
        prt.flush()
        assert [proc() for proc in procs] == [20] * 8
        assert not prt.pending_changes()
        prt.check_invariants()

    def test_drains_genuinely_overlap(self, prt):
        """Two partitions whose bodies rendezvous at a barrier: if the
        drains ran serially the first body would wait forever, so a
        completed flush *is* the concurrency proof."""
        barrier = threading.Barrier(2)

        def rendezvous(i, cell):
            if cell.peek() > 1:  # skip the initial construction run
                barrier.wait(timeout=30)

        cells, procs = _components(2, body=rendezvous)
        prt.flush()
        for cell in cells:
            cell.set(5)
        prt.flush()
        assert [proc() for proc in procs] == [50, 50]
        assert not barrier.broken
        prt.check_invariants()

    def test_repeated_waves_under_preemption(self, prt):
        """Many small waves back-to-back, with the 10 µs switch interval
        forcing interleavings inside each one."""
        cells, procs = _components(8)
        prt.flush()
        for round_no in range(25):
            for i, cell in enumerate(cells):
                cell.set(round_no + i)
            prt.flush()
            assert [proc() for proc in procs] == [
                (round_no + i) * 10 for i in range(8)
            ]
        prt.check_invariants()


class TestFaultContainment:
    def test_chaos_fault_in_one_partition_leaves_the_rest_alone(self, prt):
        """≥8 disjoint partitions, an injected fault in exactly one: the
        poisoned partition is contained, every other partition drains to
        its new value, and the audit stays clean."""
        counts = [0] * 8
        cells, procs = _components(8, counts=counts)
        prt.flush()
        baseline = list(counts)
        plan = FaultPlan([FaultSpec(match="proc3", nth=1)], seed=11)
        with plan.applied(prt):
            for cell in cells:
                cell.set(7)
            prt.flush()
        assert len(plan.injected) == 1
        # The faulted partition holds poison; a demand read surfaces it.
        with pytest.raises(NodeExecutionError) as excinfo:
            procs[3]()
        assert isinstance(excinfo.value.root, FaultInjected)
        # Every *other* partition re-executed exactly once and settled.
        for i in (0, 1, 2, 4, 5, 6, 7):
            assert procs[i]() == 70
            assert counts[i] == baseline[i] + 1
        prt.check_invariants()
        # Healing write: the poisoned partition recovers independently.
        cells[3].set(9)
        prt.flush()
        assert procs[3]() == 90
        assert prt._poison_live == 0
        prt.check_invariants()


class TestObservability:
    def test_drain_events_carry_distinct_partition_ids(self, prt):
        drained = []
        prt.events.subscribe(
            EventKind.DRAIN,
            lambda kind, node, amount, data: drained.append(data),
        )
        cells, procs = _components(8)
        prt.flush()
        for cell in cells:
            cell.set(3)
        prt.flush()
        pids = [d["partition"] for d in drained if isinstance(d, dict)]
        assert len(set(pids)) >= 8
        prt.check_invariants()

    def test_explain_chain_stays_inside_its_partition(self, prt):
        prt.obs.enable()
        cells, procs = _components(4)
        prt.flush()
        for cell in cells:
            cell.set(4)
        prt.flush()
        explanation = prt.explain("proc2()")
        assert explanation.verdict == "recomputed"
        # The chain's write link names this partition's own source.
        writes = [l for l in explanation.links if l.kind == "write"]
        assert all("src2" in l.label for l in writes)

    def test_chain_stamped_on_pool_threads_matches_the_serial_one(self):
        def run(runtime):
            ran_on = set()
            with runtime.active():
                cells = []
                for i in range(4):
                    cell = Cell(1, label=f"src{i}")

                    def first(cell=cell):
                        ran_on.add(threading.get_ident())
                        return cell.get() + 1

                    first.__name__ = f"first{i}"
                    first = cached(strategy=EAGER)(first)

                    def second(first=first):
                        ran_on.add(threading.get_ident())
                        return first() * 2

                    second.__name__ = f"second{i}"
                    cached(strategy=EAGER)(second)()
                    cells.append(cell)
                ran_on.clear()
                for cell in cells:
                    cell.set(5)
                runtime.flush()  # marks and re-executions happen here
                explanation = runtime.explain("second2()")
            links = [(link.kind, link.label) for link in explanation.links]
            return ran_on, explanation.verdict, links

        serial, parallel = Runtime(), Runtime(parallel_drains=4)
        try:
            serial_threads, *serial_answer = run(serial)
            pool_threads, *pool_answer = run(parallel)
        finally:
            serial.close()
            parallel.close()
        assert serial_threads == {threading.get_ident()}
        assert pool_threads - {threading.get_ident()}  # the pool ran bodies
        assert pool_answer == serial_answer
        assert serial_answer == [
            "recomputed",
            [
                ("write", "src2"),
                ("change-detected", "src2"),
                ("marked", "src2"),
                ("marked", "first2()"),
                ("re-executed", "first2()"),
                ("marked", "second2()"),
                ("re-executed", "second2()"),
            ],
        ]


class TestTransactions:
    def test_commit_fans_out_across_partitions(self, prt):
        payloads = []
        prt.events.subscribe(
            EventKind.BATCH_COMMIT,
            lambda kind, node, amount, data: payloads.append(data),
        )
        cells, procs = _components(6)
        prt.flush()
        with prt.batch():
            for cell in cells:
                cell.set(8)
        assert [proc() for proc in procs] == [80] * 6
        assert len(payloads) == 1
        assert len(payloads[0]["partitions"]) == 6
        assert not prt.pending_changes()
        prt.check_invariants()

    def test_rollback_is_atomic_across_partitions(self, prt):
        cells, procs = _components(4)
        prt.flush()
        with pytest.raises(RuntimeError):
            with prt.batch():
                for cell in cells:
                    cell.set(99)
                raise RuntimeError("abort everything")
        prt.flush()
        # The batch body applied its writes before dying; transaction
        # exception semantics keep the values but skip the commit drain
        # (same contract as the serial engine).
        assert [proc() for proc in procs] == [990] * 4
        prt.check_invariants()


class TestSerialEquivalence:
    ROUNDS = 50

    def test_parallel_and_serial_agree_on_op_counts(self):
        """The partition-local engine must do the same *work* either
        way, and count it exactly: every counter's delta matches, so a
        pool thread's counts that go missing or are folded in twice
        show here (under the suite's 10 µs switch interval)."""

        def run(parallel):
            kwargs = {"parallel_drains": 4} if parallel else {}
            runtime = Runtime(**kwargs)
            with runtime.active():
                cells, procs = _components(6)
                runtime.flush()
                before = runtime.stats.snapshot()
                for round_no in range(self.ROUNDS):
                    for cell in cells:
                        cell.set(round_no * 2)
                    runtime.flush()
                delta = runtime.stats.delta(before)
                values = [proc() for proc in procs]
            runtime.close()
            return values, delta

        serial_values, serial = run(parallel=False)
        parallel_values, parallel = run(parallel=True)
        assert serial_values == parallel_values
        assert parallel == serial
        assert parallel["executions"] == 6 * self.ROUNDS


class TestEdgeMapRace:
    """Adjacency maps are dicts, which raise when resized mid-iteration.

    One partition drains a storage cell ``S`` with many eager readers,
    walking ``S.succ`` to mark them, while the other workers drain 50
    small partitions whose eager bodies start reading ``S`` in the same
    flush, inserting into ``S.succ`` from other threads.  Edge edits
    run under the partition lock and successor marking walks the map
    under it too, so no round may fail."""

    READERS = 300
    LATE = 50
    ROUNDS = 100

    def _round(self):
        runtime = Runtime(parallel_drains=4)
        with runtime.active():
            s = Cell(0, label="S")
            triggers = [Cell(0, label=f"T{j}") for j in range(self.LATE)]

            @cached(strategy=EAGER)
            def reader(i):
                return s.get() + i

            @cached(strategy=EAGER)
            def late(j):
                x = triggers[j].get()
                return x + (s.get() if x > 1 else 0) + j

            for i in range(self.READERS):
                reader(i)
            for j in range(self.LATE):
                late(j)

            def write_all(value):
                s.set(value)  # S's partition is handed to a worker first
                for trigger in triggers:
                    trigger.set(value)

            # A first parallel flush starts the pool's threads; the
            # partitions stay disjoint because late() ignores S so far.
            write_all(1)
            runtime.flush()
            assert not runtime.partitions.same_partition(
                s._node, triggers[0]._node
            )
            write_all(2)
            runtime.flush()
            assert [reader(i) for i in range(self.READERS)] == [
                2 + i for i in range(self.READERS)
            ]
            assert [late(j) for j in range(self.LATE)] == [
                4 + j for j in range(self.LATE)
            ]
            assert len(s._node.succ) == self.READERS + self.LATE
            assert not runtime.pending_changes()
        runtime.close()

    def test_cross_partition_reads_during_a_drain(self):
        for _ in range(self.ROUNDS):
            self._round()

    @staticmethod
    def _waves(parallel, build, waves, **options):
        """Build a graph (``build`` returns its per-wave writes and a read
        of every value) and run ``waves`` flushes; after each, the values
        read, with a clean audit and no stash left behind."""
        if parallel:
            options["parallel_drains"] = 4
        runtime = Runtime(**options)
        seen = []
        with runtime.active():
            write, read_all = build()
            for wave in range(waves):
                write(wave)
                runtime.flush()
                assert runtime.check_invariants() == []
                assert all(node.stash is None for node in runtime.graph.nodes)
                seen.append(read_all())
        runtime.close()
        return seen

    def test_read_sets_change_between_waves(self):
        """Each of 40 partitions holds an eager ``rotor`` whose read set
        turns with its trigger's value, so every wave stashes, re-links,
        adds and drops edges on the drain threads."""
        count = 40

        def build():
            triggers = [Cell(0, label=f"T{j}") for j in range(count)]
            left = [Cell(j, label=f"A{j}") for j in range(count)]
            right = [Cell(2 * j, label=f"B{j}") for j in range(count)]

            @cached(strategy=EAGER)
            def rotor(j):
                x = triggers[j].get()
                total = x + (left[j].get() if x % 3 else 0)
                return total + (right[j].get() if x % 3 != 1 else 0)

            def write(wave):
                for trigger in triggers:
                    trigger.set(wave + 1)

            for j in range(count):
                rotor(j)
            return write, lambda: [rotor(j) for j in range(count)]

        for _ in range(10):
            assert self._waves(True, build, 7) == self._waves(False, build, 7)

    @pytest.mark.parametrize(
        "strategy, options",
        [(DEMAND, {}), (EAGER, {}), (DEMAND, {"strict_cycles": True})],
        ids=["demand", "eager", "demand-strict"],
    )
    def test_call_into_a_partition_another_thread_drains(self, strategy, options):
        """The known gap: ``caller(j)`` starts calling ``shared()`` in the
        wave that also changes ``shared``'s input, while another thread
        drains the owners' partition.  ``shared`` blocks briefly, so the
        callers find it running there: its flag already says consistent
        but its value is the old one.  A demand ``shared`` would not
        re-mark them once it commits, so the callers run it themselves
        (not a re-entry: ``strict_cycles`` must not call it a cycle).  An
        eager ``shared`` is left to its drain, which re-marks them if the
        value it commits changed; a second run there would win the commit
        and leave that drain comparing the old value.  Either way every
        value must equal a serial run's."""
        count = 12

        def build():
            u = Cell(0, label="u")
            votes = [Cell(0, label=f"v{j}") for j in range(count)]
            extra = [Cell(10 * i, label=f"x{i}") for i in range(3)]

            @cached(strategy=strategy)
            def shared():
                x = u.get()
                time.sleep(0.001)  # releases the GIL mid-body
                return x + extra[x % 3].get()

            @cached(strategy=EAGER)
            def owner(k):
                return shared() + k

            @cached(strategy=EAGER)
            def caller(j):
                y = votes[j].get()
                return y + (shared() if y % 2 else 0)

            def write(wave):
                u.set(wave + 1)
                if wave:  # from the second wave on, every caller calls in
                    for vote in votes:
                        vote.set(2 * wave + 1)

            for k in range(4):
                owner(k)
            for j in range(count):
                caller(j)
            return write, lambda: (
                [shared()]
                + [owner(k) for k in range(4)]
                + [caller(j) for j in range(count)]
            )

        for _ in range(20):
            assert self._waves(True, build, 4, **options) == self._waves(
                False, build, 4, **options
            )

    @pytest.mark.parametrize("strategy", [DEMAND, EAGER], ids=["demand", "eager"])
    def test_first_run_of_a_node_another_thread_runs(self, strategy):
        """Every ``caller(j)`` calls ``fresh()`` for the first time in one
        wave, so most find it consistent but without a value while
        another thread runs its first execution.  That is not a cycle:
        they run it too, and every value must equal a serial run's."""
        count = 12

        def build():
            votes = [Cell(0, label=f"v{j}") for j in range(count)]

            @cached(strategy=strategy)
            def fresh():
                time.sleep(0.001)  # releases the GIL mid-body
                return 42

            @cached(strategy=EAGER)
            def caller(j):
                y = votes[j].get()
                return y + (fresh() if y % 2 else 0)

            def write(wave):
                for vote in votes:
                    vote.set(wave + 1)

            for j in range(count):
                caller(j)
            return write, lambda: [caller(j) for j in range(count)]

        for _ in range(10):
            assert self._waves(True, build, 2) == self._waves(False, build, 2)

    def test_eviction_walks_succ_under_the_partition_lock(self):
        """A bounded table's eviction check walks each entry's ``succ``
        map (a running body's stashed in-edge does not count), so it must
        hold the lock under which other drain threads insert into it.
        The table holds twice as many entries as there are choosers, so
        no entry is evicted before its caller links it."""
        held = []

        class CheckedLRU(LRU):
            def select_victims(self, table):
                held.append(runtime.partitions._lock._is_owned())
                return super().select_victims(table)

        runtime = Runtime(parallel_drains=4)
        with runtime.active():
            picks = [Cell(j, label=f"P{j}") for j in range(8)]

            @cached(policy=lambda: CheckedLRU(16))
            def leaf(i):
                return i * 10

            @cached(strategy=EAGER)
            def chooser(j):
                return leaf(picks[j].get())

            for j in range(8):
                chooser(j)
            for wave in range(1, 4):
                for j, pick in enumerate(picks):
                    pick.set(j + 8 * wave)
                runtime.flush()
                assert [chooser(j) for j in range(8)] == [
                    10 * (j + 8 * wave) for j in range(8)
                ]
                assert runtime.check_invariants() == []
        runtime.close()
        assert len(held) == 32 and all(held)

    def test_a_full_table_never_evicts_an_entry_before_its_caller_links_it(self):
        """The table holds a quarter as many entries as there are
        choosers.  Each wave's choosers call new leaves on the drain
        threads, where one thread's add may evict any entry no caller
        pins, such as a leaf a re-running chooser has not read again.
        A new entry is linked to its caller in the partition-lock
        section of its add, so none is evicted before its body runs."""
        for _ in range(10):
            runtime = Runtime(parallel_drains=4)
            with runtime.active():
                picks = [Cell(j, label=f"P{j}") for j in range(8)]

                @cached(policy=lambda: LRU(2))
                def leaf(i):
                    return i * 10

                @cached(strategy=EAGER)
                def chooser(j):
                    return leaf(picks[j].get())

                for j in range(8):
                    chooser(j)
                for wave in range(1, 6):
                    for j, pick in enumerate(picks):
                        pick.set(j + 8 * wave)
                    runtime.flush()
                    assert [chooser(j) for j in range(8)] == [
                        10 * (j + 8 * wave) for j in range(8)
                    ]
                    assert runtime.check_invariants() == []
                assert runtime.stats.cache_evictions == 40
                assert runtime.stats.nodes_poisoned == 0
            runtime.close()


class TestPoisonScanRace:
    """The eager containment shortcut scans a node's ``pred`` map for a
    poisoned input, and another thread running that node rewrites the
    map.  Here a helper thread stands in for that execution: it links
    and unlinks a storage node into ``total``'s ``pred`` map through
    ``DependencyGraph.create_edge``/``remove_succ_edges`` (the calls a
    concurrent run of ``total`` makes) while every flush scans the map
    past 3,000 clean inputs to the poisoned one at its end.  The scan
    holds the partition lock, so no flush may fail."""

    READS = 3000
    ROUNDS = 3
    FLUSHES = 200

    def _round(self):
        runtime = Runtime(parallel_drains=2)
        with runtime.active():
            cells = [Cell(i, label=f"c{i}") for i in range(self.READS)]
            bad = Cell(1, label="bad")

            @cached(strategy=EAGER)
            def broken():
                if bad.get():
                    raise ValueError("poison")
                return 0

            @cached(strategy=EAGER)
            def total():
                return sum(cell.get() for cell in cells) + broken()

            with pytest.raises(NodeExecutionError):
                total()
            node = runtime.node_for(total, ())
            extra = runtime.graph.new_storage_node("extra")
            stop = threading.Event()

            def churn():
                graph = runtime.graph
                while not stop.is_set():
                    graph.create_edge(extra, node)
                    graph.remove_succ_edges(extra)

            helper = threading.Thread(target=churn)
            helper.start()
            try:
                for value in range(1, self.FLUSHES + 1):
                    cells[0].set(value)
                    runtime.flush()  # total: poisoned from its input
            finally:
                stop.set()
                helper.join()
            runtime.graph.remove_succ_edges(extra)
            bad.set(0)
            runtime.flush()
            assert total() == self.FLUSHES + sum(range(1, self.READS))
        runtime.close()

    def test_poisoned_input_scan_during_edge_edits(self):
        for _ in range(self.ROUNDS):
            self._round()
