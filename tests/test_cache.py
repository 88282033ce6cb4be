"""Tests for the page cache and its eviction policies."""

import pytest

from repro.storage.cache import CachePolicy, PageCache


def fill(cache: PageCache, count: int, inode: int = 1):
    for page in range(count):
        cache.insert((inode, page))


class TestPageCacheBasics:
    def test_miss_then_hit(self):
        cache = PageCache(capacity_pages=10)
        assert not cache.lookup((1, 0))
        cache.insert((1, 0))
        assert cache.lookup((1, 0))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_capacity_enforced(self):
        cache = PageCache(capacity_pages=5)
        fill(cache, 20)
        assert len(cache) == 5

    def test_insert_returns_evicted_pages(self):
        cache = PageCache(capacity_pages=2)
        cache.insert((1, 0))
        cache.insert((1, 1))
        evicted = cache.insert((1, 2))
        assert len(evicted) == 1
        assert evicted[0][0] in {(1, 0), (1, 1)}

    def test_zero_capacity_cache_never_stores(self):
        cache = PageCache(capacity_pages=0)
        cache.insert((1, 0))
        assert not cache.lookup((1, 0))
        assert len(cache) == 0

    def test_reinsert_existing_page_does_not_evict(self):
        cache = PageCache(capacity_pages=2)
        cache.insert((1, 0))
        cache.insert((1, 1))
        assert cache.insert((1, 0)) == []
        assert len(cache) == 2

    def test_peek_does_not_count_stats(self):
        cache = PageCache(capacity_pages=4)
        cache.insert((1, 0))
        cache.peek((1, 0))
        cache.peek((1, 1))
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_hit_ratio(self):
        cache = PageCache(capacity_pages=4)
        cache.insert((1, 0))
        cache.lookup((1, 0))
        cache.lookup((1, 1))
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PageCache(capacity_pages=-1)

    def test_capacity_bytes_counts_whole_pages(self):
        cache = PageCache(capacity_pages=256, page_size=4096)
        assert cache.capacity_bytes == 1024 * 1024

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PageCache(capacity_pages=4, policy="mru")


class TestDirtyPages:
    def test_dirty_tracking(self):
        cache = PageCache(capacity_pages=4)
        cache.insert((1, 0), dirty=True)
        cache.insert((1, 1))
        assert cache.dirty_pages == 1
        assert (1, 0) in [k for k in cache.dirty_keys()]

    def test_clean_removes_dirty_state(self):
        cache = PageCache(capacity_pages=4)
        cache.insert((1, 0), dirty=True)
        cache.clean((1, 0))
        assert cache.dirty_pages == 0

    def test_mark_dirty_only_for_resident(self):
        cache = PageCache(capacity_pages=4)
        cache.mark_dirty((1, 0))
        assert cache.dirty_pages == 0
        cache.insert((1, 0))
        cache.mark_dirty((1, 0))
        assert cache.dirty_pages == 1

    def test_eviction_reports_dirtiness(self):
        cache = PageCache(capacity_pages=1)
        cache.insert((1, 0), dirty=True)
        evicted = cache.insert((1, 1))
        assert evicted == [((1, 0), True)]
        assert cache.stats.dirty_evictions == 1

    def test_reinsert_dirty_marks_existing_page(self):
        cache = PageCache(capacity_pages=4)
        cache.insert((1, 0))
        cache.insert((1, 0), dirty=True)
        assert cache.dirty_pages == 1


class TestInvalidation:
    def test_invalidate_single_page(self):
        cache = PageCache(capacity_pages=4)
        cache.insert((1, 0))
        assert cache.invalidate((1, 0))
        assert not cache.peek((1, 0))
        assert not cache.invalidate((1, 0))

    def test_invalidate_inode_drops_only_that_file(self):
        cache = PageCache(capacity_pages=10)
        fill(cache, 3, inode=1)
        fill(cache, 3, inode=2)
        dropped = cache.invalidate_inode(1)
        assert dropped == 3
        assert cache.resident_pages_of(1) == 0
        assert cache.resident_pages_of(2) == 3

    def test_drop_caches_empties_everything(self):
        cache = PageCache(capacity_pages=10)
        fill(cache, 5)
        cache.insert((2, 0), dirty=True)
        dropped = cache.drop_caches()
        assert dropped == 6
        assert len(cache) == 0
        assert cache.dirty_pages == 0

    def test_resize_shrinks_and_reports_evictions(self):
        cache = PageCache(capacity_pages=10)
        fill(cache, 10)
        evicted = cache.resize(4)
        assert len(evicted) == 6
        assert len(cache) == 4
        assert cache.capacity_pages == 4


class TestLRUBehaviour:
    def test_lru_evicts_least_recently_used(self):
        cache = PageCache(capacity_pages=3, policy=CachePolicy.LRU)
        cache.insert((1, 0))
        cache.insert((1, 1))
        cache.insert((1, 2))
        cache.lookup((1, 0))  # 0 becomes most recent
        evicted = cache.insert((1, 3))
        assert evicted[0][0] == (1, 1)

    def test_fifo_ignores_recency(self):
        cache = PageCache(capacity_pages=3, policy=CachePolicy.FIFO)
        cache.insert((1, 0))
        cache.insert((1, 1))
        cache.insert((1, 2))
        cache.lookup((1, 0))
        evicted = cache.insert((1, 3))
        assert evicted[0][0] == (1, 0)

    def test_clock_gives_second_chance(self):
        cache = PageCache(capacity_pages=3, policy=CachePolicy.CLOCK)
        cache.insert((1, 0))
        cache.insert((1, 1))
        cache.insert((1, 2))
        cache.lookup((1, 0))  # reference bit set on 0
        evicted = cache.insert((1, 3))
        assert evicted[0][0] == (1, 1)


@pytest.mark.parametrize(
    "policy",
    [CachePolicy.LRU, CachePolicy.CLOCK, CachePolicy.ARC, CachePolicy.TWO_Q, CachePolicy.FIFO],
)
class TestAllPoliciesInvariants:
    def test_capacity_never_exceeded(self, policy):
        cache = PageCache(capacity_pages=8, policy=policy)
        for page in range(100):
            cache.insert((1, page))
            assert len(cache) <= 8

    def test_inserted_page_is_resident(self, policy):
        cache = PageCache(capacity_pages=8, policy=policy)
        for page in range(50):
            cache.insert((1, page))
            assert cache.peek((1, page))

    def test_repeated_working_set_hits(self, policy):
        cache = PageCache(capacity_pages=8, policy=policy)
        # A working set smaller than the cache should eventually always hit.
        for _ in range(5):
            for page in range(4):
                cache.lookup((1, page))
                cache.insert((1, page))
        hits_before = cache.stats.hits
        for page in range(4):
            assert cache.lookup((1, page))
        assert cache.stats.hits == hits_before + 4

    def test_eviction_and_reinsertion_consistent(self, policy):
        cache = PageCache(capacity_pages=4, policy=policy)
        for page in range(12):
            cache.insert((1, page))
        # Reinsert everything again; no key should ever be double-resident.
        for page in range(12):
            cache.insert((1, page))
        assert len(cache) == 4


class TestScanResistance:
    def test_arc_protects_hot_set_better_than_lru(self):
        """After a large sequential scan, ARC should retain more of the hot set."""
        hot_pages = [(1, p) for p in range(8)]

        def run(policy):
            cache = PageCache(capacity_pages=16, policy=policy)
            # Establish a frequently re-referenced hot set.
            for _ in range(6):
                for key in hot_pages:
                    if not cache.lookup(key):
                        cache.insert(key)
            # One pass of a large scan (cold pages, never re-referenced).
            for page in range(200):
                key = (2, page)
                if not cache.lookup(key):
                    cache.insert(key)
            return sum(1 for key in hot_pages if cache.peek(key))

        assert run(CachePolicy.ARC) >= run(CachePolicy.LRU)
