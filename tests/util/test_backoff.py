"""Unit tests for the shared retry-backoff policy."""

import random

import pytest

from repro.util.backoff import ExponentialBackoff


def test_doubles_until_cap():
    backoff = ExponentialBackoff(0.5, 8.0)
    assert [backoff.next_delay() for _ in range(7)] == [
        0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0
    ]
    assert backoff.attempts == 7


def test_first_immediate_prepends_zero_without_consuming_a_step():
    backoff = ExponentialBackoff(0.5, 8.0, first_immediate=True)
    assert [backoff.next_delay() for _ in range(6)] == [
        0.0, 0.5, 1.0, 2.0, 4.0, 8.0
    ]


def test_reset_returns_to_first_step():
    backoff = ExponentialBackoff(1.0, 16.0)
    for _ in range(4):
        backoff.next_delay()
    backoff.reset()
    assert backoff.attempts == 0
    assert backoff.next_delay() == 1.0


def test_peek_does_not_advance():
    backoff = ExponentialBackoff(1.0, 16.0)
    assert backoff.peek_delay() == 1.0
    assert backoff.peek_delay() == 1.0
    assert backoff.next_delay() == 1.0
    assert backoff.peek_delay() == 2.0


def test_jitter_bounded_and_seed_deterministic():
    a = ExponentialBackoff(1.0, 64.0, jitter_frac=0.2, rng=random.Random(7))
    b = ExponentialBackoff(1.0, 64.0, jitter_frac=0.2, rng=random.Random(7))
    delays_a = [a.next_delay() for _ in range(6)]
    delays_b = [b.next_delay() for _ in range(6)]
    assert delays_a == delays_b  # same seed, same schedule
    for i, delay in enumerate(delays_a):
        nominal = min(1.0 * 2.0 ** i, 64.0)
        assert nominal * 0.8 <= delay <= nominal * 1.2


def test_zero_jitter_is_exact():
    backoff = ExponentialBackoff(0.25, 2.0, jitter_frac=0.0)
    assert backoff.next_delay() == 0.25


def test_retry_after_floors_only_the_next_delay():
    backoff = ExponentialBackoff(0.5, 8.0)
    backoff.note_retry_after(3.0)
    assert backoff.next_delay() == 3.0  # hint beats the 0.5 step
    assert backoff.next_delay() == 1.0  # spent: schedule resumes


def test_retry_after_does_not_shrink_a_larger_step():
    backoff = ExponentialBackoff(0.5, 8.0)
    for _ in range(4):
        backoff.next_delay()
    backoff.note_retry_after(1.0)
    assert backoff.next_delay() == 8.0  # already past the hint


def test_retry_after_keeps_the_largest_hint():
    backoff = ExponentialBackoff(0.5, 8.0)
    backoff.note_retry_after(2.0)
    backoff.note_retry_after(1.0)  # smaller later hint does not regress
    assert backoff.next_delay() == 2.0


def test_retry_after_overrides_first_immediate_zero():
    backoff = ExponentialBackoff(0.5, 8.0, first_immediate=True)
    backoff.note_retry_after(1.5)
    assert backoff.next_delay() == 1.5  # no free immediate attempt
    assert backoff.next_delay() == 0.5


def test_peek_reflects_pending_hint_without_consuming_it():
    backoff = ExponentialBackoff(0.5, 8.0)
    backoff.note_retry_after(4.0)
    assert backoff.peek_delay() == 4.0
    assert backoff.peek_delay() == 4.0
    assert backoff.next_delay() == 4.0
    assert backoff.peek_delay() == 1.0


def test_reset_clears_pending_hint():
    backoff = ExponentialBackoff(0.5, 8.0)
    backoff.note_retry_after(5.0)
    backoff.reset()
    assert backoff.next_delay() == 0.5


def test_negative_retry_after_rejected():
    backoff = ExponentialBackoff(0.5, 8.0)
    with pytest.raises(ValueError):
        backoff.note_retry_after(-0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base_s": 0.0, "cap_s": 1.0},
        {"base_s": -1.0, "cap_s": 1.0},
        {"base_s": 2.0, "cap_s": 1.0},
        {"base_s": 1.0, "cap_s": 2.0, "jitter_frac": 1.0},
        {"base_s": 1.0, "cap_s": 2.0, "jitter_frac": -0.1},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        ExponentialBackoff(**kwargs)


def test_clear_hint_drops_pending_floor():
    """A retry-after hint describes one server; when the next attempt
    targets a different one the hint must be droppable without
    consuming an exponent step."""
    backoff = ExponentialBackoff(0.5, 8.0)
    backoff.note_retry_after(5.0)
    backoff.clear_hint()
    assert backoff.next_delay() == 0.5
    assert backoff.next_delay() == 1.0


def test_clear_hint_with_first_immediate_restores_the_free_attempt():
    backoff = ExponentialBackoff(0.5, 8.0, first_immediate=True)
    backoff.note_retry_after(5.0)
    backoff.clear_hint()
    assert backoff.next_delay() == 0.0


def test_default_stream_is_built_on_first_jittered_draw():
    backoff = ExponentialBackoff(1.0, 64.0, jitter_frac=0.2)
    unjittered = ExponentialBackoff(1.0, 64.0)
    assert backoff._rng is None and unjittered._rng is None
    unjittered.next_delay()
    assert unjittered._rng is None
    first = backoff.next_delay()
    assert first == 1.0 + 0.2 * (2.0 * random.Random(0).random() - 1.0)
    assert isinstance(backoff._rng, random.Random)
