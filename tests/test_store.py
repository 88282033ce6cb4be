"""Tests for the packed result store (repro.store).

Four layers of guarantees:

* the format round-trips bit-identically (fuzzed), dedups identical
  duplicates, and refuses conflicting or out-of-order records;
* integrity is total -- *every* single-byte flip is caught by ``verify``,
  and the read path raises (never returns wrong data) for damage in the
  header, the index, or a block, with block damage staying block-local;
* reads are block-granular: a point lookup on a multi-block pack
  decompresses exactly one block, an index-resolved miss none, and a prefix
  scan only the blocks the index cannot rule out;
* the campaign round-trip: pack a populated cache, shard, merge (byte-
  identical to the direct pack), rebuild the frame (byte-identical JSONL to
  a serial uncached run), and replay an experiment from the pack alone with
  zero executions -- plus the CLI verbs that expose all of it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import warnings

import pytest

from repro.cli import main
from repro.core.experiment import Experiment, ParameterGrid
from repro.core.parallel import ParallelExecutor, ResultCache
from repro.core.runner import BenchmarkConfig, WarmupMode
from repro.store import format as fmt
from repro.store.format import StoreConflictError, StoreCorruptionError, StoreError
from repro.store.merge import merge_packs
from repro.store.reader import PackReader, verify_pack
from repro.store.writer import PackWriter, pack_result_cache, write_pack
from repro.storage.config import scaled_testbed


def key_of(index: int) -> str:
    """A deterministic 64-hex cache-key stand-in, sorted by construction."""
    return f"{index:04x}" + hashlib.sha256(str(index).encode()).hexdigest()[:60]


def make_records(count: int, seed: int = 0, max_payload: int = 120):
    rng = random.Random(seed)
    return [
        (key_of(index), rng.randbytes(rng.randint(0, max_payload)))
        for index in range(count)
    ]


def file_sha(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def flipped(path: str, out: str, position: int, mask: int = 0x01) -> str:
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[position] ^= mask
    with open(out, "wb") as handle:
        handle.write(bytes(data))
    return out


# ------------------------------------------------------------------- format
class TestRoundTrip:
    def test_records_round_trip_bit_identically(self, tmp_path):
        records = make_records(40)
        records[7] = (records[7][0], b"")  # empty payloads are legal
        path = str(tmp_path / "a.frpack")
        summary = write_pack(path, records, block_records=6)
        assert summary.records == 40
        assert summary.blocks == 7
        with PackReader(path) as reader:
            assert len(reader) == 40
            assert list(reader) == records
            for key, payload in records:
                assert reader.get(key) == payload
        assert verify_pack(path).ok

    def test_empty_pack(self, tmp_path):
        path = str(tmp_path / "empty.frpack")
        summary = write_pack(path, [])
        assert summary.records == 0
        with PackReader(path) as reader:
            assert len(reader) == 0
            assert list(reader) == []
            assert reader.get(key_of(0)) is None
        assert verify_pack(path).ok

    def test_unsorted_input_is_sorted_by_default(self, tmp_path):
        records = make_records(10)
        path = str(tmp_path / "a.frpack")
        write_pack(path, list(reversed(records)))
        with PackReader(path) as reader:
            assert list(reader) == records

    def test_identical_duplicates_dedup(self, tmp_path):
        records = make_records(6)
        path = str(tmp_path / "a.frpack")
        summary = write_pack(path, records + [records[2]])
        assert summary.records == 6
        assert summary.duplicates == 1
        with PackReader(path) as reader:
            assert list(reader) == records

    def test_conflicting_duplicate_raises(self, tmp_path):
        key = key_of(1)
        with pytest.raises(StoreConflictError, match=key):
            write_pack(
                str(tmp_path / "a.frpack"), [(key, b"one"), (key, b"two")]
            )

    def test_descending_keys_rejected_without_sort(self, tmp_path):
        writer = PackWriter(str(tmp_path / "a.frpack"))
        writer.add(key_of(5), b"x")
        with pytest.raises(ValueError, match="ascending"):
            writer.add(key_of(4), b"y")
        writer.abort()

    def test_same_records_produce_byte_identical_packs(self, tmp_path):
        records = make_records(30, seed=3)
        a = str(tmp_path / "a.frpack")
        b = str(tmp_path / "b.frpack")
        write_pack(a, records, block_records=4)
        write_pack(b, list(reversed(records)), block_records=4)
        assert file_sha(a) == file_sha(b)

    def test_fuzzed_record_sets_round_trip(self, tmp_path):
        for seed in range(5):
            rng = random.Random(seed)
            records = make_records(rng.randint(0, 60), seed=seed, max_payload=400)
            path = str(tmp_path / f"fuzz{seed}.frpack")
            write_pack(
                path,
                records,
                level=rng.randint(0, 9),
                block_bytes=rng.choice([64, 512, 64 * 1024]),
            )
            with PackReader(path) as reader:
                assert list(reader) == records
                if records:
                    key, payload = records[rng.randrange(len(records))]
                    assert reader.get(key) == payload
            assert verify_pack(path).ok

    def test_writer_context_manager_aborts_on_error(self, tmp_path):
        path = str(tmp_path / "a.frpack")
        with pytest.raises(RuntimeError):
            with PackWriter(path) as writer:
                writer.add(key_of(0), b"x")
                raise RuntimeError("boom")
        assert not os.path.exists(path)
        assert os.listdir(str(tmp_path)) == []  # no temp litter either


# ---------------------------------------------------------------- integrity
@pytest.fixture
def small_pack(tmp_path):
    """A 4-block pack with known record placement (3 records per block)."""
    records = make_records(12, seed=7, max_payload=40)
    path = str(tmp_path / "small.frpack")
    write_pack(path, records, block_records=3)
    return path, records


def _layout(path):
    """(data_start, index_offset, index_len, entries) of a pack file."""
    with open(path, "rb") as handle:
        data = handle.read()
    _, data_start = fmt.decode_preamble(data)
    footer = data[len(data) - fmt.FOOTER_SIZE :]
    index_offset, index_len, _, _ = fmt.decode_footer(footer)
    entries, _ = fmt.decode_index(data[index_offset : index_offset + index_len])
    return data_start, index_offset, index_len, entries


class TestIntegrity:
    def test_every_single_byte_flip_is_caught_by_verify(self, small_pack, tmp_path):
        path, _ = small_pack
        with open(path, "rb") as handle:
            size = len(handle.read())
        bad = str(tmp_path / "bad.frpack")
        missed = [
            position
            for position in range(size)
            if verify_pack(flipped(path, bad, position)).ok
        ]
        assert missed == []

    def test_reads_never_return_wrong_data_under_any_flip(self, small_pack, tmp_path):
        # The companion guarantee: whatever the damage, a reader either
        # raises or returns the *correct* payload (a key whose stored bytes
        # were damaged may legitimately miss -- but never mis-answer).
        path, records = small_pack
        with open(path, "rb") as handle:
            size = len(handle.read())
        bad = str(tmp_path / "bad.frpack")
        for position in range(size):
            flipped(path, bad, position)
            try:
                with PackReader(bad) as reader:
                    for key, payload in records:
                        got = reader.get(key)
                        assert got is None or got == payload, (
                            f"flip at byte {position} returned wrong data"
                        )
            except StoreError:
                continue

    def test_header_flip_raises_on_open(self, small_pack, tmp_path):
        path, _ = small_pack
        header_json_at = len(fmt.MAGIC) + 4 + 2  # inside the header document
        bad = flipped(path, str(tmp_path / "bad.frpack"), header_json_at)
        with pytest.raises(StoreCorruptionError, match="header CRC"):
            PackReader(bad)
        report = verify_pack(bad)
        assert not report.ok
        assert any("header" in error for error in report.errors)

    def test_index_flip_raises_on_open(self, small_pack, tmp_path):
        path, _ = small_pack
        _, index_offset, _, _ = _layout(path)
        bad = flipped(path, str(tmp_path / "bad.frpack"), index_offset + 2)
        with pytest.raises(StoreCorruptionError, match="index CRC"):
            PackReader(bad)
        report = verify_pack(bad)
        assert not report.ok
        assert any("index" in error for error in report.errors)

    def test_block_flip_raises_on_access_and_stays_block_local(
        self, small_pack, tmp_path
    ):
        path, records = small_pack
        _, _, _, entries = _layout(path)
        damaged = 1  # flip a byte in the middle of block 1's compressed bytes
        position = entries[damaged].offset + entries[damaged].comp_len // 2
        bad = flipped(path, str(tmp_path / "bad.frpack"), position)
        report = verify_pack(bad)
        assert not report.ok
        assert any(f"block {damaged}" in error for error in report.errors)
        with PackReader(bad) as reader:  # opening is fine: damage is lazy
            with pytest.raises(StoreCorruptionError, match=f"block {damaged}"):
                reader.get(records[3][0])  # records 3..5 live in block 1
            # Other blocks are untouched and still fully readable.
            assert reader.get(records[0][0]) == records[0][1]
            assert reader.get(records[9][0]) == records[9][1]

    def test_fingerprint_flip_is_detected(self, small_pack, tmp_path):
        path, _ = small_pack
        with open(path, "rb") as handle:
            size = len(handle.read())
        fingerprint_at = size - fmt.FOOTER_SIZE + fmt.FOOTER_FINGERPRINTED
        report = verify_pack(flipped(path, str(tmp_path / "bad.frpack"), fingerprint_at))
        assert not report.ok
        assert any("fingerprint" in error for error in report.errors)

    def test_not_a_pack_and_truncation(self, small_pack, tmp_path):
        path, _ = small_pack
        junk = tmp_path / "junk.frpack"
        junk.write_bytes(b"this is not a pack at all, not even close")
        with pytest.raises(fmt.StoreFormatError):
            PackReader(str(junk))
        assert not verify_pack(str(junk)).ok
        with open(path, "rb") as handle:
            data = handle.read()
        cut = tmp_path / "cut.frpack"
        cut.write_bytes(data[:-10])
        with pytest.raises(StoreCorruptionError):
            PackReader(str(cut))
        assert not verify_pack(str(cut)).ok


# -------------------------------------------------------------- granularity
class TestBlockGranularity:
    def test_point_lookup_decompresses_exactly_one_block(self, small_pack):
        path, records = small_pack
        with PackReader(path) as reader:
            assert reader.n_blocks == 4
            assert reader.get(records[4][0]) == records[4][1]
            assert reader.blocks_read == 1
            assert reader.get(records[10][0]) == records[10][1]
            assert reader.blocks_read == 2
            # Re-reading the cached block costs nothing.
            assert reader.get(records[11][0]) == records[11][1]
            assert reader.blocks_read == 2

    def test_index_resolved_miss_decompresses_nothing(self, small_pack):
        path, records = small_pack
        with PackReader(path) as reader:
            assert reader.get("0" * 64) is None  # below the first key
            assert reader.get("f" * 64) is None  # above the last key
            assert reader.blocks_read == 0

    def test_prefix_scan_skips_untouched_blocks(self, tmp_path):
        records = sorted(
            (prefix + f"{index:02d}" + "0" * 55, f"{prefix}{index}".encode())
            for prefix in ("aaaaaaa", "bbbbbbb", "ccccccc")
            for index in range(4)
        )
        path = str(tmp_path / "prefixed.frpack")
        write_pack(path, records, block_records=4)
        with PackReader(path) as reader:
            assert reader.n_blocks == 3
            middle = [(k, v) for k, v in records if k.startswith("bbbbbbb")]
            assert list(reader.iter_prefix("bbbbbbb")) == middle
            assert reader.blocks_read == 1


# ----------------------------------------------------------------- campaign
def quick_config() -> BenchmarkConfig:
    return BenchmarkConfig(
        duration_s=0.3,
        repetitions=2,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=0.25,
    )


GRID = {"fs": ("ext2", "ext4"), "workload": ("postmark",)}


def frame_lines(frame) -> list:
    buffer = io.StringIO()
    frame.to_jsonl(buffer)
    return sorted(buffer.getvalue().splitlines())


@contextlib.contextmanager
def resource_warnings():
    """Collect the messages of the ResourceWarnings raised in the block.

    A leaked file warns from its finalizer, where an "error" filter only
    reports the exception instead of raising it, so the warnings are
    recorded and the caller asserts on them.
    """
    leaks: list = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield leaks
        gc.collect()
    leaks.extend(str(w.message) for w in caught if w.category is ResourceWarning)


def one_record_blocks(campaign, name: str) -> str:
    """Pack the campaign one record per block.  Every lookup after the
    first then reads the file, so a closed reader cannot answer from its
    cached block."""
    pack_path = str(campaign["root"] / name)
    pack_result_cache(campaign["cache_dir"], pack_path, block_records=1)
    return pack_path


def replay_experiment(pack_path: str) -> Experiment:
    return Experiment(
        ParameterGrid(GRID),
        name="campaign",
        config=quick_config(),
        testbed=scaled_testbed(1.0 / 16.0),
        pack_paths=(pack_path,),
    )


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One cached campaign run shared by the round-trip tests below."""
    root = tmp_path_factory.mktemp("campaign")
    cache_dir = str(root / "cache")
    experiment = Experiment(
        ParameterGrid(GRID),
        name="campaign",
        config=quick_config(),
        testbed=scaled_testbed(1.0 / 16.0),
        cache_dir=cache_dir,
    )
    result = experiment.run()
    return {"root": root, "cache_dir": cache_dir, "frame": result.frame}


class TestCampaignRoundTrip:
    def test_pack_shard_merge_and_frame_bit_identity(self, campaign):
        root = campaign["root"]
        direct = str(root / "direct.frpack")
        summary = pack_result_cache(campaign["cache_dir"], direct, block_records=2)
        assert summary.records == 4  # 2 fs x 2 repetitions
        assert summary.skipped == 0
        assert verify_pack(direct).ok

        # Shard the records three ways (round-robin, so the merge has to
        # interleave), then merge -- byte-identical to the direct pack.
        with PackReader(direct) as reader:
            records = list(reader)
        shards = []
        for shard_index in range(3):
            shard_path = str(root / f"shard{shard_index}.frpack")
            write_pack(shard_path, records[shard_index::3], block_records=2)
            shards.append(shard_path)
        merged = str(root / "merged.frpack")
        merge_summary = merge_packs(merged, shards, block_records=2)
        assert merge_summary.records == 4
        assert file_sha(merged) == file_sha(direct)

        # The frame rebuilt from the merged pack is byte-identical (as
        # sorted JSONL) to the frame of a fresh serial, uncached run.
        from repro.store.commands import frame_from_pack

        with PackReader(merged) as reader:
            packed_frame = frame_from_pack(reader, experiment="campaign")
        serial = Experiment(
            ParameterGrid(GRID),
            name="campaign",
            config=quick_config(),
            testbed=scaled_testbed(1.0 / 16.0),
        ).run()
        assert frame_lines(packed_frame) == frame_lines(serial.frame)

    def test_pack_warmed_cache_replays_with_zero_executions(
        self, campaign, monkeypatch
    ):
        root = campaign["root"]
        pack_path = str(root / "warm.frpack")
        pack_result_cache(campaign["cache_dir"], pack_path)

        def refuse(unit):
            raise AssertionError(f"executed {unit.group} despite the pack")

        monkeypatch.setattr("repro.core.parallel.execute_unit", refuse)
        fresh = Experiment(
            ParameterGrid(GRID),
            name="campaign",
            config=quick_config(),
            testbed=scaled_testbed(1.0 / 16.0),
            cache_dir=str(root / "fresh-cache"),
            pack_paths=(pack_path,),
        )
        replay = fresh.run()
        assert replay.cache_stats.hits == 4
        assert replay.cache_stats.misses == 0
        assert replay.cache_stats.stores == 0
        assert frame_lines(replay.frame) == frame_lines(campaign["frame"])

    def test_pack_only_cache_is_read_only(self, campaign):
        root = campaign["root"]
        pack_path = str(root / "readonly.frpack")
        pack_result_cache(campaign["cache_dir"], pack_path)
        cache = ResultCache(pack_paths=(pack_path,))
        with PackReader(pack_path) as reader:
            key = next(iter(reader))[0]
        run = cache.get(key)
        assert run is not None
        assert cache.stats.hits == 1
        cache.put(key, run)  # silently discarded: packs are immutable
        assert cache.stats.stores == 0
        assert len(cache) == 0
        assert cache.clear() == 0
        cache.close()
        cache.close()  # idempotent, and the stats stay readable
        assert cache.stats.hits == 1

    def test_pack_replay_closes_its_pack(self, campaign):
        experiment = replay_experiment(one_record_blocks(campaign, "closed.frpack"))
        with resource_warnings() as leaks:
            replay = experiment.run()
        assert replay.cache_stats.pack_hits == 4
        assert leaks == []

    def test_run_leaves_a_caller_supplied_cache_open(self, campaign):
        pack_path = one_record_blocks(campaign, "shared.frpack")
        experiment = replay_experiment(pack_path)
        cache = ResultCache(pack_paths=(pack_path,))
        executor = ParallelExecutor(cache=cache)
        try:
            first = experiment.run(executor=executor)
            second = experiment.run(executor=executor)
        finally:
            cache.close()
        assert cache.stats.pack_hits == 8
        assert frame_lines(second.frame) == frame_lines(first.frame)

    def test_a_pack_that_fails_to_open_closes_the_packs_before_it(self, campaign, tmp_path):
        pack_path = one_record_blocks(campaign, "first.frpack")
        with resource_warnings() as leaks:
            with pytest.raises(FileNotFoundError):
                ResultCache(pack_paths=(pack_path, str(tmp_path / "missing.frpack")))
        assert leaks == []

    def test_merge_conflict_is_fatal(self, tmp_path):
        key = key_of(0)
        a = str(tmp_path / "a.frpack")
        b = str(tmp_path / "b.frpack")
        write_pack(a, [(key, b"payload-one")])
        write_pack(b, [(key, b"payload-two")])
        with pytest.raises(StoreConflictError, match=key):
            merge_packs(str(tmp_path / "m.frpack"), [a, b])

    def test_corrupt_loose_entry_is_skipped_with_count(self, campaign, tmp_path):
        import shutil

        cache_dir = str(tmp_path / "cache-with-corruption")
        shutil.copytree(campaign["cache_dir"], cache_dir)
        bad_key = "00" + "9" * 62
        os.makedirs(os.path.join(cache_dir, "00"), exist_ok=True)
        with open(os.path.join(cache_dir, "00", f"{bad_key}.json"), "w") as handle:
            handle.write("{torn write")
        summary = pack_result_cache(cache_dir, str(tmp_path / "p.frpack"))
        assert summary.records == 4
        assert summary.skipped == 1
        assert summary.skipped_paths == [
            os.path.join(cache_dir, "00", f"{bad_key}.json")
        ]


# ---------------------------------------------------------------------- CLI
class TestStoreCli:
    def test_pack_verify_query_export_verbs(self, campaign, tmp_path, capsys):
        pack_path = str(tmp_path / "cli.frpack")
        assert (
            main(["results", "pack", "--cache-dir", campaign["cache_dir"], "--out", pack_path])
            == 0
        )
        out = capsys.readouterr().out
        assert "packed 4 records" in out

        assert main(["results", "verify", pack_path]) == 0
        assert "OK" in capsys.readouterr().out

        # query: rendered table on stdout, then an axis-filtered JSONL export
        assert main(["results", "query", pack_path]) == 0
        assert "postmark" in capsys.readouterr().out
        frame_path = str(tmp_path / "frame.jsonl")
        assert (
            main(
                [
                    "results",
                    "query",
                    pack_path,
                    "--where",
                    "fs=ext4",
                    "--experiment",
                    "campaign",
                    "--out",
                    frame_path,
                ]
            )
            == 0
        )
        capsys.readouterr()
        with open(frame_path) as handle:
            rows = [json.loads(line) for line in handle]
        assert rows and all(row["fs"] == "ext4" for row in rows)

        # export --runs is re-packable into a byte-identical artifact
        runs_path = str(tmp_path / "runs.jsonl")
        repacked = str(tmp_path / "repacked.frpack")
        assert main(["results", "export", pack_path, "--out", runs_path, "--runs"]) == 0
        assert main(["results", "pack", "--runs", runs_path, "--out", repacked]) == 0
        capsys.readouterr()
        assert file_sha(repacked) == file_sha(pack_path)

    def test_verify_exits_nonzero_on_corruption(self, campaign, tmp_path, capsys):
        pack_path = str(tmp_path / "v.frpack")
        pack_result_cache(campaign["cache_dir"], pack_path)
        bad = flipped(pack_path, str(tmp_path / "bad.frpack"), 60)
        assert main(["results", "verify", bad]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_merge_verb(self, campaign, tmp_path, capsys):
        direct = str(tmp_path / "direct.frpack")
        pack_result_cache(campaign["cache_dir"], direct)
        with PackReader(direct) as reader:
            records = list(reader)
        a = str(tmp_path / "a.frpack")
        b = str(tmp_path / "b.frpack")
        write_pack(a, records[:2])
        write_pack(b, records[2:])
        merged = str(tmp_path / "m.frpack")
        assert main(["results", "merge", a, b, "--out", merged]) == 0
        capsys.readouterr()
        assert file_sha(merged) == file_sha(direct)

    def test_usage_errors_are_clean(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.frpack")
        assert main(["results", "verify", missing]) == 1  # report, not traceback
        capsys.readouterr()
        assert main(["results", "query", missing]) == 2
        assert "error" in capsys.readouterr().err
        assert (
            main(["results", "pack", "--cache-dir", str(tmp_path / "nodir"), "--out", missing])
            == 2
        )
        assert "error" in capsys.readouterr().err
        assert main(["cache", str(tmp_path / "nodir")]) == 2
        assert "error" in capsys.readouterr().err

    def test_cache_maintenance_verb(self, campaign, tmp_path, capsys):
        import shutil

        cache_dir = str(tmp_path / "cache")
        shutil.copytree(campaign["cache_dir"], cache_dir)
        bad_key = "00" + "8" * 62
        os.makedirs(os.path.join(cache_dir, "00"), exist_ok=True)
        bad_path = os.path.join(cache_dir, "00", f"{bad_key}.json")
        with open(bad_path, "w") as handle:
            handle.write("{torn")
        assert main(["cache", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "5 entries" in out
        assert "4 readable" in out
        assert "1 corrupt" in out
        assert os.path.exists(bad_path + ".corrupt")

        assert main(["cache", cache_dir, "--clear"]) == 0
        assert "cleared 4 entries" in capsys.readouterr().out
        assert main(["cache", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_run_with_pack_warm_start(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        axes = [
            "--axis", "fs=ext2",
            "--axis", "workload=postmark",
            "--axis", "duration_s=0.3",
            "--axis", "repetitions=1",
            "--scaled-testbed", "0.0625",
        ]
        assert main(["run", *axes, "--cache-dir", cache_dir, "--quiet"]) == 0
        capsys.readouterr()
        pack_path = str(tmp_path / "warm.frpack")
        assert main(["results", "pack", "--cache-dir", cache_dir, "--out", pack_path]) == 0
        capsys.readouterr()
        # Replay from the pack alone: every cell is a hit, nothing is stored.
        assert main(["run", *axes, "--pack", pack_path, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "cache: 1 hits, 0 misses, 0 stores" in out

    def test_run_rejects_unreadable_pack(self, tmp_path, capsys):
        junk = tmp_path / "junk.frpack"
        junk.write_bytes(b"garbage")
        assert (
            main(
                [
                    "run",
                    "--axis",
                    "fs=ext2",
                    "--axis",
                    "workload=postmark",
                    "--pack",
                    str(junk),
                ]
            )
            == 2
        )
        assert "error" in capsys.readouterr().err
