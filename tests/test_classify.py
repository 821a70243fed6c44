"""Tests for flow classifiers."""

import hashlib

import pytest

from repro.classify.classifier import (
    HashClassifier,
    SingleQueueClassifier,
    SlotClassifier,
)
from repro.net.packet import FlowId


class TestSlotClassifier:
    def test_slot_is_queue(self):
        c = SlotClassifier(4)
        assert c.queue_of(FlowId(0, 2)) == 2

    def test_incarnations_keep_queue(self):
        c = SlotClassifier(4)
        assert c.queue_of(FlowId(0, 1, 0)) == c.queue_of(FlowId(0, 1, 7))

    def test_out_of_range_rejected(self):
        c = SlotClassifier(2)
        with pytest.raises(ValueError):
            c.queue_of(FlowId(0, 5))

    def test_needs_positive_queues(self):
        with pytest.raises(ValueError):
            SlotClassifier(0)


class TestHashClassifier:
    def test_stable_across_instances(self):
        a = HashClassifier(8)
        b = HashClassifier(8)
        flow = FlowId(3, 9)
        assert a.queue_of(flow) == b.queue_of(flow)

    def test_salt_changes_mapping(self):
        flows = [FlowId(0, s) for s in range(64)]
        a = HashClassifier(8, salt=0)
        b = HashClassifier(8, salt=1)
        assert any(a.queue_of(f) != b.queue_of(f) for f in flows)

    def test_range(self):
        c = HashClassifier(4)
        for s in range(100):
            assert 0 <= c.queue_of(FlowId(1, s)) < 4

    def test_spreads_flows(self):
        c = HashClassifier(8)
        buckets = {c.queue_of(FlowId(0, s)) for s in range(200)}
        assert len(buckets) == 8

    def test_hashes_once_per_flow_and_keeps_the_mapping(self, monkeypatch):
        ids = [(0, 0, 0), (0, 1, 0), (0, 1, 5), (2, 7, 0), (9, 41, 2)]
        calls = []
        real = hashlib.sha256
        monkeypatch.setattr(
            hashlib, "sha256", lambda key: calls.append(key) or real(key)
        )
        c = HashClassifier(8, salt=3)
        for _ in range(3):
            # Fresh, equal ids each pass: the memo is by value.
            queues = [c.queue_of(FlowId(*fid)) for fid in ids]
            # The mapping before the memo (incarnations share a queue).
            assert queues == [0, 3, 3, 1, 6]
        assert len(calls) == len(ids)


class TestSingleQueueClassifier:
    def test_everything_queue_zero(self):
        c = SingleQueueClassifier()
        assert c.num_queues == 1
        assert c.queue_of(FlowId(9, 9, 9)) == 0
