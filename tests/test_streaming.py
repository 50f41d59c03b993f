"""Tests for repro.parallel.streaming: out-of-core per-step processing."""

import pytest

from repro.data import make_argon_sequence
from repro.obs import get_metrics
from repro.parallel.streaming import (
    prefetch_map,
    sequence_step_stems,
    stream_map,
)
from repro.volume.io import save_sequence


def mean_value(volume):
    return float(volume.data.mean())


@pytest.fixture(scope="module")
def saved_sequence(tmp_path_factory):
    directory = tmp_path_factory.mktemp("stream") / "argon"
    sequence = make_argon_sequence(shape=(12, 16, 16), times=[195, 205, 215, 225])
    save_sequence(sequence, directory)
    return directory, sequence


class TestStepStems:
    def test_lists_all_steps(self, saved_sequence):
        directory, sequence = saved_sequence
        stems = sequence_step_stems(directory)
        assert [t for t, _ in stems] == sequence.times


class TestStreamMap:
    def test_results_match_in_core(self, saved_sequence):
        directory, sequence = saved_sequence
        streamed = dict(stream_map(mean_value, directory))
        for vol in sequence:
            assert streamed[vol.time] == pytest.approx(float(vol.data.mean()))

    def test_time_filter(self, saved_sequence):
        directory, _ = saved_sequence
        out = list(stream_map(mean_value, directory, times=[205, 225]))
        assert [t for t, _ in out] == [205, 225]

    def test_lazy_generator(self, saved_sequence):
        directory, _ = saved_sequence
        gen = stream_map(mean_value, directory)
        first = next(gen)
        assert first[0] == 195

    def test_mmap_path(self, saved_sequence):
        directory, sequence = saved_sequence
        out = dict(stream_map(mean_value, directory, mmap=True))
        assert out[195] == pytest.approx(float(sequence[0].data.mean()))


class TestPrefetchMap:
    def test_results_in_order(self):
        assert list(prefetch_map(lambda x: x * x, range(7))) == [
            0, 1, 4, 9, 16, 25, 36]

    def test_empty_items(self):
        assert list(prefetch_map(lambda x: x, [])) == []

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="depth"):
            prefetch_map(lambda x: x, [1, 2], depth=0)

    def test_lookahead_bounded_by_depth(self):
        """The producer never runs more than ``depth`` items past a pull."""
        import time

        started = []

        def fn(item):
            started.append(item)
            return item

        it = prefetch_map(fn, range(10), depth=2)
        time.sleep(0.2)  # producer free-runs until its tickets are spent
        assert len(started) <= 2
        assert next(it) == 0
        time.sleep(0.2)
        assert len(started) <= 3
        assert list(it) == list(range(1, 10))

    def test_exception_reraises_at_matching_pull(self):
        def fn(item):
            if item == 2:
                raise RuntimeError("boom at 2")
            return item

        it = prefetch_map(fn, range(5))
        assert next(it) == 0
        assert next(it) == 1
        with pytest.raises(RuntimeError, match="boom at 2"):
            next(it)
        # The stream is dead after the error, not resumed past it.
        with pytest.raises(StopIteration):
            next(it)

    def test_abandonment_stops_producer(self):
        calls = []
        it = prefetch_map(lambda x: calls.append(x) or x, range(100), depth=1)
        assert next(it) == 0
        it.close()
        it._producer.join(timeout=5.0)
        assert not it._producer.is_alive()
        assert len(calls) < 100

    def test_prefetched_counter_increments(self):
        metrics = get_metrics()
        before = metrics.counter_values().get("stream.prefetched", 0)
        list(prefetch_map(lambda x: x, range(4)))
        after = metrics.counter_values().get("stream.prefetched", 0)
        assert after - before == 4

    def test_no_reference_retained_after_pull(self):
        """A delivered result is collectable once the consumer drops it."""
        import weakref

        class Payload:
            pass

        it = prefetch_map(lambda _: Payload(), [1, 2])
        first = next(it)
        ref = weakref.ref(first)
        next(it)  # the whole stream is drained; nothing in flight
        del first
        assert ref() is None
