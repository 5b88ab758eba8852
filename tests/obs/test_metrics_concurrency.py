"""MetricsRegistry under concurrent emitters: scrapes stay consistent.

The serve layer points every tenant runtime's ``RuntimeMetrics`` at one
shared registry, so instruments are updated from many worker threads
while ``/metrics`` scrapes ``to_prometheus()`` and ``snapshot()`` from
the loop thread.  Two properties must hold:

* registration is safe mid-scrape — a new session registering a
  per-procedure histogram while another thread iterates the registry
  must not blow up (``RuntimeError: dictionary changed size``);
* a histogram is rendered from one self-consistent copy — the rendered
  ``_count`` always equals the sum of its rendered buckets, even while
  ``observe()`` races the scrape;
* a kernel counter (read from each runtime's ``rt.stats``) never falls
  while runtimes attach, work and detach, and ends exact.
"""

import re
import sys
import threading

from repro import Cell, Runtime, cached
from repro.obs.metrics import (
    STATS_SERIES,
    TIME_BUCKETS,
    MetricsRegistry,
    RuntimeMetrics,
)


class TestConcurrentRegistration:
    def test_scrape_races_registration(self):
        registry = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def registrar():
            i = 0
            while not stop.is_set():
                registry.counter(f"c_{i % 500}").inc()
                registry.histogram(f"h_{i % 200}", buckets=TIME_BUCKETS)
                i += 1

        def scraper():
            try:
                while not stop.is_set():
                    registry.to_prometheus()
                    registry.snapshot()
            except Exception as exc:  # noqa: BLE001 - the failure signal
                errors.append(exc)

        threads = [threading.Thread(target=registrar) for _ in range(3)]
        threads += [threading.Thread(target=scraper) for _ in range(2)]
        for thread in threads:
            thread.start()
        timer = threading.Timer(1.0, stop.set)
        timer.start()
        for thread in threads:
            thread.join()
        timer.cancel()
        assert errors == []

    def test_shared_registry_aggregates_collectors(self):
        """Several RuntimeMetrics on one registry share instruments
        (the serve layer's /metrics aggregation mechanism): a kernel
        counter sums the attached runtimes and keeps a detached one's."""
        registry = MetricsRegistry()
        first_rt, second_rt = Runtime(), Runtime()
        first = RuntimeMetrics(registry=registry).attach(first_rt)
        second = RuntimeMetrics(registry=registry).attach(second_rt)
        assert first.cache_hits is second.cache_hits
        first_rt.stats.cache_hits += 3
        second_rt.stats.cache_hits += 4
        hits = registry.get("alphonse_cache_hits_total")
        assert hits.value == 7
        first.detach()
        second_rt.stats.cache_hits += 1
        assert hits.value == 8
        second.detach()
        assert hits.value == 8


_TOTAL = re.compile(r"^(alphonse_\w+_total) (\S+)$", re.M)


class TestKernelCounters:
    ROUNDS = 8

    def test_series_never_fall_and_end_exact(self, tmp_path):
        """Four threads each open runtimes on one registry, work, and
        detach, while a fifth scrapes: no series falls between two
        scrapes, and each kernel series ends at the sum of the runtimes'
        ``rt.stats`` field."""
        registry = MetricsRegistry()
        runtimes, fell, scrapes = [], [], []
        stop = threading.Event()

        def tenant(index):
            for round_ in range(self.ROUNDS):
                rt = Runtime()
                metrics = RuntimeMetrics(registry=registry).attach(rt)
                with rt.active():
                    cells = [Cell(i, label="c") for i in range(4)]

                    @cached
                    def total():
                        return sum(cell.get() for cell in cells)

                    manager = rt.persist_to(str(tmp_path / f"t{index}-{round_}"))
                    for i in range(12):
                        total()
                        cells[i % 4].set(i + round_)
                    total()
                    manager.checkpoint()
                    manager.close()
                metrics.detach()
                runtimes.append(rt)

        def scraper():
            last = {}
            while not stop.is_set():
                now = {
                    name: float(value)
                    for name, value in _TOTAL.findall(registry.to_prometheus())
                }
                fell.extend(
                    (name, last[name], value)
                    for name, value in now.items()
                    if value < last.get(name, 0)
                )
                last = now
                scrapes.append(len(now))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-fold, if they can
        try:
            scraping = threading.Thread(target=scraper)
            scraping.start()
            tenants = [
                threading.Thread(target=tenant, args=(i,)) for i in range(4)
            ]
            for thread in tenants:
                thread.start()
            for thread in tenants:
                thread.join(timeout=60)
            stop.set()
            scraping.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in tenants + [scraping])
        assert len(scrapes) > 1 and fell == []
        assert len(runtimes) == 4 * self.ROUNDS
        for field, name, _help in STATS_SERIES:
            expected = sum(getattr(rt.stats, field) for rt in runtimes)
            assert registry.get(name).value == expected, name
        for field in ("cache_hits", "cache_misses", "changes_detected",
                      "checkpoints", "wal_records"):
            assert registry.get(f"alphonse_{field}_total").value > 0, field


class TestConsistentHistograms:
    def test_count_equals_bucket_sum_under_race(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=TIME_BUCKETS)
        stop = threading.Event()

        def emitter():
            value = 0.0001
            while not stop.is_set():
                histogram.observe(value)
                value = value * 10 if value < 1 else 0.0001

        threads = [threading.Thread(target=emitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(300):
                snap = histogram.snapshot()
                assert snap["count"] == sum(snap["counts"]), snap
                text = registry.to_prometheus()
                buckets = [
                    int(m)
                    for m in re.findall(r'h_bucket\{le="[^+]+?"\} (\d+)', text)
                ]
                inf = int(re.search(r'h_bucket\{le="\+Inf"\} (\d+)', text)[1])
                count = int(re.search(r"h_count (\d+)", text)[1])
                # Cumulative buckets are monotone and +Inf == _count.
                assert buckets == sorted(buckets)
                assert inf == count
        finally:
            stop.set()
            for thread in threads:
                thread.join()
