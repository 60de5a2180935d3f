"""Tests for the file-backed segment store."""

import numpy as np
import pytest

from repro.core.slide import SlideFilter
from repro.core.swing import SwingFilter
from repro.core.types import Recording, RecordingKind
from repro.data.random_walk import RandomWalkConfig, random_walk
from repro.storage.segment_store import SegmentStore


@pytest.fixture
def store(tmp_path):
    return SegmentStore(tmp_path / "segments")


def compress_walk(epsilon=0.5, length=600, seed=21):
    times, values = random_walk(RandomWalkConfig(length=length, max_delta=1.0, seed=seed))
    result = SlideFilter(epsilon).process(zip(times, values))
    return times, values, result


class TestCatalog:
    def test_empty_store(self, store):
        assert len(store) == 0
        assert store.stream_names() == []
        assert "anything" not in store

    def test_append_creates_stream(self, store):
        _, _, result = compress_walk()
        entry = store.append("walk", result.recordings, epsilon=0.5)
        assert "walk" in store
        assert entry.recordings == result.recording_count
        assert entry.dimensions == 1
        assert entry.epsilon == [0.5]
        assert entry.first_time == result.recordings[0].time
        assert entry.last_time == result.recordings[-1].time

    @pytest.mark.parametrize("existing", [False, True], ids=["new-stream", "existing-stream"])
    def test_mixed_dimensionality_is_refused_with_nothing_written(self, tmp_path, existing):
        root = tmp_path / "segments"
        store = SegmentStore(root)
        if existing:
            store.append("walk", [Recording(0.0, [1.0], RecordingKind.SEGMENT_START)])
        store.close()
        files = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        store = SegmentStore(root)
        mixed = [
            Recording(1.0, [1.0], RecordingKind.SEGMENT_START),
            Recording(2.0, [1.0, 2.0], RecordingKind.SEGMENT_END),
        ]
        with pytest.raises(ValueError, match="recordings must share one dimensionality"):
            store.append("walk", mixed)
        assert ("walk" in store) == existing
        if existing:
            assert store.describe("walk").recordings == 1
        store.close()
        assert {path: path.read_bytes() for path in root.rglob("*") if path.is_file()} == files

    def test_append_writes_what_append_arrays_writes(self, tmp_path):
        times, values = np.arange(400.0), np.cumsum(
            np.random.default_rng(4).normal(0.0, 0.4, (400, 2)), axis=0
        )
        slide = SlideFilter(0.25)
        recordings = slide.process_batch(times, values) + slide.finish()
        by_record = SegmentStore(tmp_path / "records")
        by_record.append("walk", recordings, epsilon=[0.25, 0.25])
        by_record.close()
        by_array = SegmentStore(tmp_path / "arrays")
        by_array.append_arrays(
            "walk",
            [record.time for record in recordings],
            np.array([record.value for record in recordings]),
            [record.kind for record in recordings],
            epsilon=[0.25, 0.25],
        )
        by_array.close()
        for path in (tmp_path / "records").rglob("*"):
            if path.is_file():
                twin = tmp_path / "arrays" / path.relative_to(tmp_path / "records")
                assert path.read_bytes() == twin.read_bytes(), path.name

    def test_describe_unknown_stream(self, store):
        with pytest.raises(KeyError):
            store.describe("missing")

    def test_multiple_streams_sorted(self, store):
        _, _, result = compress_walk()
        store.append("b-stream", result.recordings)
        store.append("a-stream", result.recordings)
        assert store.stream_names() == ["a-stream", "b-stream"]
        assert len(store) == 2

    def test_delete(self, store):
        _, _, result = compress_walk()
        store.append("walk", result.recordings)
        store.delete("walk")
        assert "walk" not in store
        with pytest.raises(KeyError):
            store.delete("walk")

    def test_total_bytes(self, store):
        _, _, result = compress_walk()
        store.append("walk", result.recordings)
        assert store.total_bytes() > 0


class TestPersistence:
    def test_reopen_preserves_catalog_and_data(self, tmp_path):
        directory = tmp_path / "segments"
        _, _, result = compress_walk()
        store = SegmentStore(directory)
        store.append("walk", result.recordings, epsilon=0.5)

        reopened = SegmentStore(directory)
        assert reopened.stream_names() == ["walk"]
        entry = reopened.describe("walk")
        assert entry.recordings == result.recording_count
        recordings = reopened.read("walk")
        assert len(recordings) == result.recording_count
        np.testing.assert_allclose(recordings[0].value, result.recordings[0].value)

    def test_incremental_appends(self, store):
        _, _, result = compress_walk()
        midpoint = result.recording_count // 2
        store.append("walk", result.recordings[:midpoint])
        store.append("walk", result.recordings[midpoint:])
        assert store.describe("walk").recordings == result.recording_count
        assert len(store.read("walk")) == result.recording_count

    def test_out_of_order_append_rejected(self, store):
        first = Recording(10.0, 1.0, RecordingKind.HOLD)
        second = Recording(5.0, 2.0, RecordingKind.HOLD)
        store.append("walk", [first])
        with pytest.raises(ValueError):
            store.append("walk", [second])

    def test_dimension_mismatch_rejected(self, store):
        store.append("walk", [Recording(0.0, 1.0, RecordingKind.HOLD)])
        with pytest.raises(ValueError):
            store.append("walk", [Recording(1.0, [1.0, 2.0], RecordingKind.HOLD)])

    def test_empty_append_is_noop(self, store):
        store.append("walk", [Recording(0.0, 1.0, RecordingKind.HOLD)])
        entry = store.append("walk", [])
        assert entry.recordings == 1


class TestReadAndReconstruct:
    def test_round_trip_error_bound(self, store):
        times, values, result = compress_walk(epsilon=0.75)
        store.append("walk", result.recordings, epsilon=0.75)
        approx = store.reconstruct("walk")
        deviations = np.abs(approx.deviations(list(zip(times, values))))
        assert float(deviations.max()) <= 0.75 + 1e-8

    def test_time_range_read_keeps_context_recording(self, store):
        times, values, result = compress_walk()
        store.append("walk", result.recordings)
        midpoint = float(times[len(times) // 2])
        subset = store.read("walk", start=midpoint, end=float(times[-1]))
        assert subset
        # The first returned recording may precede the range so the
        # approximation still covers it.
        assert subset[0].time <= midpoint
        assert all(r.time <= float(times[-1]) or r is subset[-1] for r in subset)

    def test_range_reconstruction_covers_requested_points(self, store):
        times, values, result = compress_walk(epsilon=0.5)
        store.append("walk", result.recordings, epsilon=0.5)
        lo, hi = float(times[200]), float(times[400])
        approx = store.reconstruct("walk", start=lo, end=hi)
        in_range = [(t, v) for t, v in zip(times, values) if lo <= t <= hi]
        deviations = np.abs(approx.deviations(in_range))
        assert float(deviations.max()) <= 0.5 + 1e-8

    def test_constant_family_round_trip(self, store):
        from repro.core.cache import CacheFilter

        times, values, _ = compress_walk()
        result = CacheFilter(1.0).process(zip(times, values))
        store.append("cache-walk", result.recordings, epsilon=1.0)
        approx = store.reconstruct("cache-walk")
        deviations = np.abs(approx.deviations(list(zip(times, values))))
        assert float(deviations.max()) <= 1.0 + 1e-8

    def test_multidimensional_round_trip(self, store):
        rng = np.random.default_rng(5)
        times = np.arange(300.0)
        values = np.cumsum(rng.normal(0, 0.4, (300, 3)), axis=0)
        result = SwingFilter(0.6).process(zip(times, values))
        store.append("vector", result.recordings, epsilon=[0.6, 0.6, 0.6])
        approx = store.reconstruct("vector")
        deviations = np.abs(approx.deviations(list(zip(times, values))))
        assert float(deviations.max()) <= 0.6 + 1e-8
        assert store.describe("vector").dimensions == 3
