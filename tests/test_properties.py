"""Property-based tests (hypothesis) for core data structures and invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import from_latencies
from repro.core.stats import confidence_interval, fragility_index, summarize
from repro.core.steady_state import detect_steady_state
from repro.core.timeline import IntervalSeries
from repro.fs.allocation import BlockGroupAllocator, ExtentAllocator, MultiBlockAllocator
from repro.fs.base import Extent, Inode, InodeType, NoSpaceError
from repro.storage.cache import CachePolicy, PageCache
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
