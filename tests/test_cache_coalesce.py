"""Coalescing and L2/DRAM accounting tests."""

from hypothesis import given, strategies as st

from repro.sim.cache import L2Cache, MemorySystem
from repro.sim.coalesce import coalesce, transactions_for
from repro.sim.specs import CostModel, TINY


class TestCoalesce:
    def test_contiguous_warp_access_is_one_transaction(self):
        addrs = [1024 + 4 * lane for lane in range(32)]
        assert transactions_for(addrs, 4) == 1

    def test_strided_access_explodes(self):
        addrs = [1024 + 128 * lane for lane in range(32)]
        assert transactions_for(addrs, 4) == 32

    def test_unaligned_contiguous_spans_two_segments(self):
        addrs = [1000 + 4 * lane for lane in range(32)]
        assert transactions_for(addrs, 4) == 2

    def test_same_address_coalesces_to_one(self):
        assert transactions_for([512] * 32, 4) == 1

    def test_eight_byte_access_straddling_boundary(self):
        assert transactions_for([124], 8) == 2

    def test_empty(self):
        assert transactions_for([], 4) == 0

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    def test_transaction_count_bounds(self, addrs):
        t = transactions_for(addrs, 4)
        assert 1 <= t <= 2 * len(set(addrs))

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=32))
    def test_segments_cover_all_addresses(self, addrs):
        segments = coalesce(addrs, 4, 128)
        for a in addrs:
            assert a // 128 in segments


class TestL2Cache:
    def test_miss_then_hit(self):
        l2 = L2Cache(size_bytes=4096, line_bytes=128)
        assert l2.probe(10) is False
        assert l2.probe(10) is True

    def test_lru_eviction(self):
        l2 = L2Cache(size_bytes=2 * 128, line_bytes=128, ways=2)
        # one set of 2 ways: fill with segments mapping to set 0
        s = l2.num_sets
        a, b, c = 0, s, 2 * s  # same set
        l2.probe(a)
        l2.probe(b)
        l2.probe(c)  # evicts a (LRU)
        assert l2.probe(b) is True
        assert l2.probe(a) is False

    def test_flush(self):
        l2 = L2Cache(4096, 128)
        l2.probe(1)
        l2.flush()
        assert l2.probe(1) is False


class TestMemorySystem:
    def test_miss_counts_dram_transaction(self):
        ms = MemorySystem(TINY, CostModel())
        cycles = ms.access_segments({1, 2, 3})
        assert ms.counters.dram_transactions == 3
        assert cycles == 3 * CostModel().dram_transaction_cycles

    def test_hit_is_cheaper(self):
        cost = CostModel()
        ms = MemorySystem(TINY, cost)
        ms.access_segments({7})
        cycles = ms.access_segments({7})
        assert cycles == cost.l2_hit_cycles
        assert ms.counters.l2_hits == 1

    def test_overhead_tagging(self):
        ms = MemorySystem(TINY, CostModel())
        ms.charge_overhead("swap", 24)
        ms.charge_overhead("swap", 6)
        ms.charge_overhead("launch-params", 2)
        assert ms.counters.overhead == {"swap": 30, "launch-params": 2}
        assert ms.counters.dram_transactions == 32

    def test_zero_overhead_ignored(self):
        ms = MemorySystem(TINY, CostModel())
        ms.charge_overhead("swap", 0)
        assert ms.counters.dram_transactions == 0

    def test_reset(self):
        ms = MemorySystem(TINY, CostModel())
        ms.access_segments({1})
        ms.reset()
        assert ms.counters.dram_transactions == 0
        assert ms.l2.probe(1) is False


def _per_probe(ms, segments):
    """Reference pricing: one real L2 probe per access, no folding."""
    cycles = 0
    for seg in segments:
        if ms.l2.probe(seg):
            ms.counters.l2_hits += 1
            cycles += ms.cost.l2_hit_cycles
        else:
            ms.counters.l2_misses += 1
            ms.counters.dram_transactions += 1
            cycles += ms.cost.dram_transaction_cycles
    return cycles


def _l2_state(ms):
    return [list(s) for s in ms.l2._sets]


#: ordered segment sequences with runs: (segment, run length) pairs over a
#: universe larger than TINY's 128 lines, so runs mix hits, misses and
#: evictions
_runs = st.lists(st.tuples(st.integers(0, 300), st.integers(1, 5)),
                 max_size=60)


class TestFoldedPricing:
    @given(_runs, st.lists(st.integers(0, 300), max_size=40),
           st.integers(1, 4))
    def test_folded_pricer_matches_per_probe_loop(self, runs, warm, repeat):
        segments = [seg for seg, n in runs for _ in range(n)]
        folded = MemorySystem(TINY, CostModel())
        reference = MemorySystem(TINY, CostModel())
        # a warmed L2 so the sequence starts on resident lines too
        folded.access_segments(warm)
        _per_probe(reference, warm)
        cycles = folded.access_segments(segments, repeat)
        expected = _per_probe(
            reference, [seg for seg in segments for _ in range(repeat)])
        assert cycles == expected
        assert folded.counters == reference.counters
        assert _l2_state(folded) == _l2_state(reference)

    def test_a_run_makes_one_real_probe(self):
        ms = MemorySystem(TINY, CostModel())
        probes = []
        real = ms.l2.probe
        ms.l2.probe = lambda seg: probes.append(seg) or real(seg)
        ms.access_segments([5, 5, 5, 9, 5, 5], repeat=2)
        assert probes == [5, 9, 5]
        assert ms.counters.l2_misses == 2 and ms.counters.l2_hits == 10
