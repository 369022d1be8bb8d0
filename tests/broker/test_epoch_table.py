"""The flooded-table epoch rule, on its own (no broker, no network)."""

from repro.broker.epoch_table import ECHO, NEWER, STALE, EpochTable


def test_offer_keeps_only_strictly_newer_epochs():
    table = EpochTable("me")
    assert table.offer("a", 3, "x") is NEWER
    assert table["a"] == (3, "x")
    assert table.offer("a", 3, "y") is STALE
    assert table.offer("a", 2, "y") is STALE
    assert table["a"] == (3, "x")
    assert table.offer("a", 4, "y", "z") is NEWER
    assert table["a"] == (4, "y", "z")
    assert table.offer("b", 0, "first") is NEWER  # epoch 0 beats unknown


def test_own_echo_jumps_the_epoch_so_the_next_origination_wins():
    table = EpochTable("me")
    assert table.originate("v1") == 1
    assert table["me"] == (1, "v1")
    # A past life's advert at an epoch we never reached: jump to it.
    assert table.offer("me", 7, "ghost") is ECHO
    assert table["me"] == (1, "v1")  # the ghost's value is never stored
    assert table.originate("v2") == 8
    # Same epoch again still asks for a re-origination; older is ignored.
    assert table.offer("me", 8, "ghost") is ECHO
    assert table.offer("me", 5, "ghost") is None
    assert table.epoch == 8


def test_digest_lists_own_epoch_only_once_originated():
    table = EpochTable("me")
    table.offer("a", 2, "x")
    assert table.epochs() == {"a": 2}
    assert table.bump() == 1  # own value held elsewhere (the summary tier)
    assert table.epochs() == {"a": 2, "me": 1}
    assert "me" not in table


def test_newer_than_pushes_strictly_newer_entries_in_origin_order():
    table = EpochTable("me")
    table.offer("c", 1, "vc")
    table.offer("a", 5, "va", "extra")
    table.offer("b", 2, "vb")
    theirs = {"a": 5, "b": 1, "zzz": 9}
    assert table.newer_than(theirs) == [("b", 2, "vb"), ("c", 1, "vc")]
    assert table.newer_than({}) == [
        ("a", 5, "va", "extra"), ("b", 2, "vb"), ("c", 1, "vc"),
    ]


def test_behind_only_when_the_peer_holds_something_strictly_newer():
    table = EpochTable("me")
    table.originate("v")
    table.offer("a", 2, "x")
    assert not table.behind({})
    assert not table.behind({"a": 2, "me": 1})
    assert table.behind({"a": 3})
    assert table.behind({"unknown": 0})
    assert table.behind({"me": 2})  # a past life outran us
    # Two tables that exchange everything end up not behind each other.
    other = EpochTable("other")
    for origin, epoch, *fields in table.newer_than(other.epochs()):
        other.offer(origin, epoch, *fields)
    assert not other.behind(table.epochs())
    assert not table.behind(other.epochs())
