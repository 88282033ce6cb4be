"""Property-based tests (hypothesis) for core data structures and invariants."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.histogram import from_latencies
from repro.core.stats import confidence_interval, fragility_index, summarize
from repro.core.steady_state import detect_steady_state
from repro.core.timeline import IntervalSeries
from repro.fs.allocation import BlockGroupAllocator, ExtentAllocator, MultiBlockAllocator
from repro.fs.base import Extent, Inode, InodeType, NoSpaceError
from repro.fs.ext2 import Ext2FileSystem
from repro.storage.cache import CachePolicy, PageCache
from repro.storage.device import IORequest
from repro.storage.flash import GC_POLICIES, UNMAPPED, FlashGeometry, FlashTranslationLayer
from repro.storage.readahead import DEFAULT_READAHEAD, ReadaheadState

# ---------------------------------------------------------------------------
# Page cache invariants
# ---------------------------------------------------------------------------

INODES = range(4)

# Whole-cache ops appear once, page ops several times, so caches still fill.
cache_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "insert", "dirty_insert", "dirty_insert", "lookup", "lookup", "invalidate",
             "invalidate_inode", "drop_caches", "resize", "restore"]
        ),
        st.sampled_from(INODES),
        st.integers(min_value=0, max_value=200),  # page; for resize, the new capacity
    ),
    max_size=300,
)


def apply_cache_op(cache, resident, op, inode, page):
    """Apply one op to ``cache`` and to ``resident``, a plain-set oracle.

    Every return value is checked against the oracle.  Returns the cache,
    which ``restore`` replaces with a fresh one rebuilt from the export.
    """
    key = (inode, page)
    if op in ("insert", "dirty_insert"):
        for victim, _ in cache.insert(key, dirty=(op == "dirty_insert")):
            assert victim in resident and victim != key
            resident.discard(victim)
        if cache.capacity_pages:
            resident.add(key)
    elif op == "lookup":
        assert cache.lookup(key) == (key in resident)
    elif op == "invalidate":
        assert cache.invalidate(key) == (key in resident)
        resident.discard(key)
    elif op == "invalidate_inode":
        dropped = {k for k in resident if k[0] == inode}
        assert cache.invalidate_inode(inode) == len(dropped)
        resident -= dropped
    elif op == "drop_caches":
        assert cache.drop_caches() == len(resident)
        resident.clear()
    elif op == "resize":
        for victim, _ in cache.resize(page % 40):
            assert victim in resident
            resident.discard(victim)
    else:
        exported, dirty = cache.export_state()
        assert len(exported) == len(set(exported)) and set(exported) == resident
        cache = PageCache(capacity_pages=cache.capacity_pages, policy=cache.policy_name)
        cache.restore_state(exported, dirty)
        assert cache.dirty_keys() == dirty
    return cache


@given(ops=cache_ops, capacity=st.integers(min_value=1, max_value=32),
       policy=st.sampled_from(list(CachePolicy)))
@settings(max_examples=60, deadline=None)
def test_cache_never_exceeds_capacity_and_dirty_subset_of_resident(ops, capacity, policy):
    cache = PageCache(capacity_pages=capacity, policy=policy)
    resident = set()
    for op, inode, page in ops:
        cache = apply_cache_op(cache, resident, op, inode, page)
        assert len(cache) <= cache.capacity_pages
        assert cache.dirty_pages <= len(cache)
        for dirty_key in cache.dirty_keys():
            assert cache.peek(dirty_key)


@given(ops=cache_ops, capacity=st.integers(min_value=1, max_value=32),
       policy=st.sampled_from(list(CachePolicy)))
@settings(max_examples=40, deadline=None)
def test_cache_insert_makes_key_resident(ops, capacity, policy):
    cache = PageCache(capacity_pages=capacity, policy=policy)
    resident = set()
    for op, inode, page in ops:
        cache = apply_cache_op(cache, resident, op, inode, page)
        if op in ("insert", "dirty_insert"):
            assert cache.peek((inode, page)) == (cache.capacity_pages > 0)
        elif op == "invalidate":
            assert not cache.peek((inode, page))
        elif op == "invalidate_inode":
            assert cache.resident_pages_of(inode) == 0


@given(ops=cache_ops, capacity=st.integers(min_value=1, max_value=32),
       policy=st.sampled_from(list(CachePolicy)))
@settings(max_examples=60, deadline=None)
def test_cache_residency_index_matches_plain_set_oracle(ops, capacity, policy):
    cache = PageCache(capacity_pages=capacity, policy=policy)
    resident = set()
    for op, inode, page in ops:
        cache = apply_cache_op(cache, resident, op, inode, page)
        assert len(cache) == len(resident)
        for ino in INODES:
            assert cache.resident_pages_of(ino) == sum(1 for k in resident if k[0] == ino)
        assert all(cache.peek(key) for key in resident)


@given(accesses=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=400),
       capacity=st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_cache_stats_consistent(accesses, capacity):
    cache = PageCache(capacity_pages=capacity)
    for page in accesses:
        if not cache.lookup((0, page)):
            cache.insert((0, page))
    assert cache.stats.accesses == len(accesses)
    assert cache.stats.hits + cache.stats.misses == len(accesses)
    assert cache.stats.insertions <= cache.stats.misses
    assert 0.0 <= cache.stats.hit_ratio <= 1.0


run_ops = st.lists(
    st.one_of(
        # One page through ``insert``: makes pages resident (and dirty)
        # before the runs that come over them.
        st.tuples(st.just("insert"), st.sampled_from(INODES), st.integers(0, 60), st.just(1),
                  st.booleans()),
        st.tuples(st.just("lookup"), st.sampled_from(INODES), st.integers(0, 60), st.just(1),
                  st.just(False)),
        st.tuples(st.just("run"), st.sampled_from(INODES), st.integers(0, 60), st.integers(1, 24),
                  st.booleans()),
    ),
    max_size=60,
)


def assert_same_cache(left, right):
    assert left.export_state() == right.export_state()
    assert left.stats == right.stats
    assert len(left) == len(right)
    # Ghost lists, ARC's target and CLOCK's reference bits are not exported.
    assert vars(left._policy) == vars(right._policy)


@given(ops=run_ops, capacity=st.integers(min_value=0, max_value=24),
       policy=st.sampled_from(list(CachePolicy)))
@example(ops=[("run", 0, 0, 8, False)], capacity=0, policy=CachePolicy.LRU)
@example(ops=[("insert", 0, 3, 1, False), ("insert", 1, 0, 1, True), ("run", 0, 0, 8, False)],
         capacity=6, policy=CachePolicy.LRU)
@example(ops=[("run", 0, 0, 6, True), ("run", 1, 0, 6, True), ("run", 0, 2, 6, False)],
         capacity=8, policy=CachePolicy.TWO_Q)
@settings(max_examples=80, deadline=None)
def test_insert_pages_equals_a_per_page_insert_loop(ops, capacity, policy):
    by_run = PageCache(capacity_pages=capacity, policy=policy)
    by_page = PageCache(capacity_pages=capacity, policy=policy)
    for op, ino, first, count, dirty in ops:
        if op == "lookup":
            assert by_run.lookup((ino, first)) == by_page.lookup((ino, first))
        elif op == "insert":
            assert by_run.insert((ino, first), dirty=dirty) == by_page.insert((ino, first), dirty=dirty)
        else:
            victims = [
                victim
                for page in range(first, first + count)
                for victim, was_dirty in by_page.insert((ino, page), dirty=dirty)
                if was_dirty
            ]
            assert by_run.insert_pages(ino, first, count, dirty=dirty) == victims
        assert_same_cache(by_run, by_page)


# ---------------------------------------------------------------------------
# FTL map invariants
# ---------------------------------------------------------------------------

#: 256 logical pages of 16 KiB over 40 blocks of 8: garbage collection starts
#: after about 300 page writes.
FTL_GEOMETRY = FlashGeometry(
    capacity_bytes=4 * 1024 * 1024,
    page_bytes=16 * 1024,
    pages_per_block=8,
    over_provisioning=0.25,
    gc_low_watermark_blocks=3,
    gc_high_watermark_blocks=6,
)

ftl_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, FTL_GEOMETRY.logical_pages - 1), st.integers(1, 64)),
        # A byte range, so partial head and tail pages stay mapped.
        st.tuples(st.just("discard"), st.integers(0, FTL_GEOMETRY.capacity_bytes - 1),
                  st.integers(1, 256 * 1024)),
        st.tuples(st.just("restore"), st.just(0), st.just(0)),
    ),
    max_size=120,
)


def assert_ftl_maps_consistent(ftl, mapped):
    """Check the FTL's maps against each other and against ``mapped``, a set oracle."""
    geometry = ftl.geometry
    logical = {lp for lp, pp in enumerate(ftl._l2p) if pp != UNMAPPED}
    assert logical == mapped
    assert ftl._mapped == len(mapped)
    assert ftl.utilization() == len(mapped) / geometry.logical_pages
    for lp, pp in enumerate(ftl._l2p):
        if pp != UNMAPPED:
            assert ftl._p2l[pp] == lp
    per_block = [0] * geometry.physical_blocks
    for pp, lp in enumerate(ftl._p2l):
        if lp != UNMAPPED:
            assert ftl._l2p[lp] == pp
            per_block[pp // geometry.pages_per_block] += 1
    assert ftl._block_valid == per_block


@given(passes=st.integers(0, 3), ops=ftl_ops, gc_policy=st.sampled_from(GC_POLICIES))
@settings(max_examples=60, deadline=None)
def test_ftl_maps_stay_inverse_and_counted(passes, ops, gc_policy):
    ftl = FlashTranslationLayer(FTL_GEOMETRY, gc_policy=gc_policy)
    page_bytes = FTL_GEOMETRY.page_bytes
    rng = random.Random(0)
    # Sequential passes over the device first: from the second one on,
    # garbage collection runs.
    for _ in range(passes):
        ftl.write(0, FTL_GEOMETRY.capacity_bytes, rng)
    mapped = set(range(FTL_GEOMETRY.logical_pages)) if passes else set()
    assert_ftl_maps_consistent(ftl, mapped)
    for op, start, size in ops:
        if op == "write":
            count = min(size, FTL_GEOMETRY.logical_pages - start)
            ftl.write(start * page_bytes, count * page_bytes, rng)
            mapped.update(range(start, start + count))
        elif op == "discard":
            size = min(size, FTL_GEOMETRY.capacity_bytes - start)
            ftl.discard(start, size, rng)
            mapped.difference_update(range(-(-start // page_bytes), (start + size) // page_bytes))
        else:
            state = ftl.export_state()
            ftl = FlashTranslationLayer(FTL_GEOMETRY)
            ftl.restore_state(state)
            assert ftl.export_state() == state
        assert_ftl_maps_consistent(ftl, mapped)


# ---------------------------------------------------------------------------
# Allocator invariants
# ---------------------------------------------------------------------------

allocation_sizes = st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=30)


@given(sizes=allocation_sizes)
@settings(max_examples=40, deadline=None)
def test_block_group_allocator_conserves_blocks_and_never_overlaps(sizes):
    allocator = BlockGroupAllocator(total_blocks=200_000, blocks_per_group=16_384)
    initial_free = allocator.free_blocks
    allocated = []
    owned = set()
    for size in sizes:
        runs = allocator.allocate(size)
        assert sum(count for _, count in runs) == size
        for start, count in runs:
            for block in range(start, start + count):
                assert block not in owned
                owned.add(block)
        allocated.extend(runs)
    assert allocator.free_blocks == initial_free - len(owned)
    for start, count in allocated:
        allocator.free(start, count)
    assert allocator.free_blocks == initial_free


@given(sizes=allocation_sizes)
@settings(max_examples=40, deadline=None)
def test_extent_allocator_conserves_blocks(sizes):
    allocator = ExtentAllocator(total_blocks=200_000, allocation_groups=4)
    initial_free = allocator.free_blocks
    allocated = []
    for size in sizes:
        runs = allocator.allocate(size)
        assert sum(count for _, count in runs) == size
        allocated.extend(runs)
    for start, count in allocated:
        allocator.free(start, count)
    assert allocator.free_blocks == initial_free


ALLOCATORS = {
    "block-group": lambda: BlockGroupAllocator(total_blocks=200_000, blocks_per_group=16_384),
    "multi-block": lambda: MultiBlockAllocator(total_blocks=200_000, blocks_per_group=16_384),
    "extent": lambda: ExtentAllocator(total_blocks=200_000, allocation_groups=4),
}

allocator_ops = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.integers(min_value=1, max_value=20_000)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=1000)),  # which held run
        st.tuples(st.just("restore"), st.just(0)),
    ),
    max_size=40,
)


@given(kind=st.sampled_from(sorted(ALLOCATORS)), ops=allocator_ops)
@settings(max_examples=60, deadline=None)
def test_allocator_free_count_matches_free_runs(kind, ops):
    allocator = ALLOCATORS[kind]()
    initial_free = allocator.free_blocks
    held = []
    for op, arg in ops:
        if op == "allocate":
            if arg > allocator.free_blocks:
                with pytest.raises(NoSpaceError):
                    allocator.allocate(arg)
            else:
                held.extend(allocator.allocate(arg))
        elif op == "free" and held:
            allocator.free(*held.pop(arg % len(held)))
        elif op == "restore":
            state = allocator.export_free_state()
            allocator = ALLOCATORS[kind]()
            allocator.restore_free_state(state)
            assert allocator.export_free_state() == state
        free_runs = allocator.export_free_state()
        assert allocator.free_blocks == sum(count for group in free_runs for _, count in group)
        assert allocator.free_blocks == initial_free - sum(count for _, count in held)


# ---------------------------------------------------------------------------
# Inode extent-map invariants
# ---------------------------------------------------------------------------

@given(run_lengths=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=40),
       gap=st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_inode_mapping_covers_every_mapped_block(run_lengths, gap):
    inode = Inode(number=1, inode_type=InodeType.REGULAR)
    file_block = 0
    device_block = 1000
    for length in run_lengths:
        inode.add_extent(Extent(file_block, device_block, length))
        file_block += length
        device_block += length + gap  # physical gap forces separate extents when gap > 0
    total_blocks = sum(run_lengths)
    covered = sum(count for _, count in inode.iter_device_runs(0, total_blocks))
    assert covered == total_blocks
    assert inode.blocks_allocated() == total_blocks
    # Every individual block maps to exactly the device block it was given.
    probe = random.Random(0)
    for _ in range(20):
        block = probe.randrange(total_blocks)
        extent = inode.lookup_extent(block)
        assert extent is not None
        assert extent.file_block <= block < extent.file_end


MAP_READ_FS = Ext2FileSystem(64 * 1024 * 1024)

extent_map_ops = st.lists(
    st.one_of(
        # (hole before the extent, its length, physical gap after the previous one)
        st.tuples(st.just("add"), st.integers(0, 8), st.integers(1, 64), st.integers(0, 2)),
        st.tuples(st.just("truncate"), st.integers(0, 2000), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


@given(ops=extent_map_ops)
@settings(max_examples=60, deadline=None)
def test_inode_block_count_and_lookup_match_linear_scan(ops):
    inode = Inode(number=1, inode_type=InodeType.REGULAR)
    device_block = 1000
    for op, hole_or_keep, length, gap in ops:
        if op == "add":
            file_block = (inode.extents[-1].file_end if inode.extents else 0) + hole_or_keep
            device_block += gap
            inode.add_extent(Extent(file_block, device_block, length))
            device_block += length
        else:
            inode.truncate_extents(hole_or_keep)
        assert inode.blocks_allocated() == sum(extent.count for extent in inode.extents)
    end = inode.extents[-1].file_end if inode.extents else 0
    for block in range(end + 2):
        linear = next((e for e in inode.extents if e.file_block <= block < e.file_end), None)
        assert inode.lookup_extent(block) == linear
    if end:
        covered = sum(count for _, count in inode.iter_device_runs(0, end + 2))
        assert covered == inode.blocks_allocated()
    rebuilt = Inode(number=1, inode_type=InodeType.REGULAR, extents=list(inode.extents))
    assert rebuilt.blocks_allocated() == inode.blocks_allocated()


@given(ops=extent_map_ops, first=st.integers(0, 600), count=st.integers(1, 300))
@settings(max_examples=80, deadline=None)
def test_map_read_requests_cover_the_mapped_runs(ops, first, count):
    """One request per device run: built from one extent when the range lies
    inside it, from ``iter_device_runs`` across holes and extent breaks."""
    inode = Inode(number=1, inode_type=InodeType.REGULAR)
    device_block = 1000
    for op, hole_or_keep, length, gap in ops:
        if op == "add":
            file_block = (inode.extents[-1].file_end if inode.extents else 0) + hole_or_keep
            device_block += gap
            inode.add_extent(Extent(file_block, device_block, length))
            device_block += length
        else:
            inode.truncate_extents(hole_or_keep)
    block_size = MAP_READ_FS.block_size
    # The drawn range, and ranges that start at or near each extent's ends
    # and end one block before, at, or one block past its end.
    ranges = [(first, count)]
    for extent in inode.extents:
        for start in (extent.file_block, extent.file_end - 1):
            for past_end in (-1, 0, 1):
                if extent.file_end + past_end > start:
                    ranges.append((start, extent.file_end + past_end - start))
    for start, length in ranges:
        expected = [
            IORequest(block * block_size, run * block_size)
            for block, run in inode.iter_device_runs(start, length)
        ]
        assert MAP_READ_FS.map_read(inode, start, length) == expected


# ---------------------------------------------------------------------------
# Histogram invariants
# ---------------------------------------------------------------------------

latency_lists = st.lists(
    st.floats(min_value=1.0, max_value=1e10, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)


@given(latencies=latency_lists)
@settings(max_examples=60, deadline=None)
def test_histogram_totals_and_percentages(latencies):
    histogram = from_latencies(latencies)
    assert histogram.total == len(latencies)
    assert sum(histogram.counts) == len(latencies)
    assert abs(sum(histogram.percentages()) - 100.0) < 1e-6
    assert histogram.min_ns == min(latencies)
    assert histogram.max_ns == max(latencies)


@given(latencies=latency_lists, p1=st.floats(min_value=0, max_value=100),
       p2=st.floats(min_value=0, max_value=100))
@settings(max_examples=60, deadline=None)
def test_histogram_percentile_monotonic_and_bounded(latencies, p1, p2):
    histogram = from_latencies(latencies)
    low, high = sorted((p1, p2))
    assert histogram.percentile(low) <= histogram.percentile(high)
    # A percentile can never exceed twice the maximum (bucket upper bound).
    assert histogram.percentile(100) <= max(latencies) * 2 + 1


@given(a=latency_lists, b=latency_lists)
@settings(max_examples=40, deadline=None)
def test_histogram_merge_is_additive(a, b):
    merged = from_latencies(a).merge(from_latencies(b))
    assert merged.total == len(a) + len(b)
    assert merged.mean_ns() * merged.total == sum(a) + sum(b) or abs(
        merged.mean_ns() * merged.total - (sum(a) + sum(b))
    ) < 1e-3 * (sum(a) + sum(b))


# ---------------------------------------------------------------------------
# Statistics invariants
# ---------------------------------------------------------------------------

samples = st.lists(
    st.floats(min_value=0.1, max_value=1e7, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


@given(values=samples)
@settings(max_examples=80, deadline=None)
def test_summarize_bounds(values):
    summary = summarize(values)
    slack = 1e-9 * max(1.0, abs(summary.mean))  # fmean rounds within 1 ULP
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
    assert summary.minimum <= summary.median <= summary.maximum
    assert summary.stddev >= 0
    assert summary.ci95_low - slack <= summary.mean <= summary.ci95_high + slack


@given(values=st.lists(
    st.floats(min_value=0.1, max_value=1e7, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=60,
))
@settings(max_examples=60, deadline=None)
def test_confidence_interval_contains_sample_mean(values):
    low, high = confidence_interval(values)
    mean = sum(values) / len(values)
    assert low <= mean + 1e-9
    assert high >= mean - 1e-9


@given(points=st.lists(
    st.tuples(st.integers(min_value=0, max_value=1000),
              st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    max_size=40,
))
@settings(max_examples=60, deadline=None)
def test_fragility_index_bounded(points):
    index = fragility_index(points)
    assert 0.0 <= index <= 1.0


# ---------------------------------------------------------------------------
# Readahead invariants
# ---------------------------------------------------------------------------

@given(reads=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200),
       file_pages=st.integers(min_value=1, max_value=1000))
@settings(max_examples=60, deadline=None)
def test_readahead_never_exceeds_file(reads, file_pages):
    state = ReadaheadState(DEFAULT_READAHEAD)
    for raw_page in reads:
        page = raw_page % file_pages
        start, count = state.advise(page, 1, file_pages)
        assert count >= 0
        assert start + count <= file_pages


# ---------------------------------------------------------------------------
# Timeline and steady-state invariants
# ---------------------------------------------------------------------------

@given(events=st.lists(
    st.tuples(st.floats(min_value=0, max_value=100e9, allow_nan=False),
              st.floats(min_value=1, max_value=1e8, allow_nan=False)),
    min_size=1, max_size=200,
))
@settings(max_examples=40, deadline=None)
def test_interval_series_conserves_operations(events):
    series = IntervalSeries(interval_s=1.0)
    for end_time, latency in events:
        series.record(end_time, latency)
    assert series.total_operations() == len(events)
    assert all(t >= 0 for t in series.throughputs())


@given(plateau=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
       noise=st.floats(min_value=0.0, max_value=0.01),
       length=st.integers(min_value=6, max_value=40))
@settings(max_examples=40, deadline=None)
def test_steady_state_detected_on_noisy_plateau(plateau, noise, length):
    rng = random.Random(7)
    series = [plateau * (1.0 + rng.uniform(-noise, noise)) for _ in range(length)]
    assert detect_steady_state(series, window=5) is not None
