"""The perf-counter registry: validation and thread safety.

The serving executor increments the one global registry from many
threads at once, so ``add`` must lose no increment under contention.
"""

import threading

import pytest

from repro.core.system import SecureXMLSystem
from repro.perf import counters
from repro.perf.counters import PerfCounters

QUERIES = [
    "//patient[.//insurance//@coverage>=10000]//SSN",
    "//treat[disease='leukemia']/doctor",
    "//patient[age>36]/pname",
    "//SSN",
]


class TestHitRateValidation:
    def test_unknown_layer_raises_value_error(self):
        registry = PerfCounters()
        with pytest.raises(ValueError, match="unknown cache layer"):
            registry.hit_rate("nosuch")

    def test_error_names_the_known_layers(self):
        registry = PerfCounters()
        with pytest.raises(ValueError, match="plan"):
            registry.hit_rate("nosuch")

    def test_every_advertised_layer_is_queryable(self):
        registry = PerfCounters()
        layers = registry.cache_layers()
        assert "plan" in layers and "block" in layers
        for layer in layers:
            assert registry.hit_rate(layer) == 0.0

    def test_hit_rate_math(self):
        registry = PerfCounters()
        registry.add("plan_cache_hits", 3)
        registry.add("plan_cache_misses", 1)
        assert registry.hit_rate("plan") == pytest.approx(0.75)


class TestCounterThreadSafety:
    def test_add_is_lossless_under_contention(self):
        before = counters.snapshot()["serving_requests"]
        threads = [
            threading.Thread(
                target=lambda: [
                    counters.add("serving_requests") for _ in range(5_000)
                ]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert counters.snapshot()["serving_requests"] - before == 40_000
        counters.add("serving_requests", -40_000)  # leave no residue

    def test_concurrent_execute_many_loses_no_counts(self, healthcare_scs):
        """K identical systems on K threads count exactly K× one.

        Each system does deterministic single-threaded work; only the
        *global counter object* is contended.  Before ``add()`` the
        read-modify-write races lost increments under exactly this load.
        """
        from repro.workloads.healthcare import build_healthcare_database

        def make_system():
            return SecureXMLSystem.host(
                build_healthcare_database(), healthcare_scs
            )

        probe = make_system()
        baseline = counters.snapshot()
        probe.execute_many(QUERIES)
        single = counters.delta_since(baseline)

        lanes = [make_system() for _ in range(4)]
        baseline = counters.snapshot()
        threads = [
            threading.Thread(target=system.execute_many, args=(QUERIES,))
            for system in lanes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        combined = counters.delta_since(baseline)
        for name, value in single.items():
            assert combined.get(name, 0) == 4 * value, name
