"""Payload size modeling and trace bookkeeping."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fabric.sizes import agent_nbytes, codec_nbytes, model_nbytes
from repro.fabric.trace import TraceEvent, TraceLog
from repro.machine import SUN_BLADE_100
from repro.navp import Messenger
from repro.util.shadow import ShadowArray


class TestModelNbytes:
    def test_ndarray_uses_model_element_size(self):
        """Costs follow the paper's 4-byte elements even for float64."""
        a = np.zeros((10, 10), dtype=np.float64)
        assert model_nbytes(a, SUN_BLADE_100) == 400

    def test_shadow_matches_real(self):
        real = np.zeros((7, 9), dtype=np.float64)
        shadow = ShadowArray((7, 9), np.float32)
        assert model_nbytes(real, SUN_BLADE_100) == \
            model_nbytes(shadow, SUN_BLADE_100)

    def test_none_is_free(self):
        assert model_nbytes(None, SUN_BLADE_100) == 0

    def test_containers_sum(self):
        a = np.zeros(10)
        assert model_nbytes([a, a], SUN_BLADE_100) == 80
        assert model_nbytes((a,), SUN_BLADE_100) == 40
        assert model_nbytes({"k": a}, SUN_BLADE_100) > 40

    def test_bytes_and_str(self):
        assert model_nbytes(b"abcd", SUN_BLADE_100) == 4
        assert model_nbytes("abcd", SUN_BLADE_100) == 4

    def test_scalars_flat_charge(self):
        assert model_nbytes(7, SUN_BLADE_100) == 16
        assert model_nbytes(3.14, SUN_BLADE_100) == 16

    def test_memoryview_charges_nbytes_not_len(self):
        """Regression: ``len()`` of a non-byte or multi-dimensional
        memoryview is its first-dimension length, which undercharged
        a float64 view by 8x (and a 2-D view by far more)."""
        arr = np.zeros((10, 10), dtype=np.float64)
        assert model_nbytes(memoryview(arr), SUN_BLADE_100) == 800
        flat = memoryview(np.zeros(10, dtype=np.float64))
        assert model_nbytes(flat, SUN_BLADE_100) == 80

    def test_ndarray_view_charges_sliced_elements_only(self):
        base = np.zeros((100, 100), dtype=np.float64)
        view = base[:5]
        assert model_nbytes(view, SUN_BLADE_100) == \
            5 * 100 * SUN_BLADE_100.elem_size


class TestCodecNbytes:
    def test_view_costs_sliced_bytes_not_base(self):
        base = np.zeros((256, 256), dtype=np.float64)
        band = base[:8]  # 16 KiB slice of a 512 KiB base
        cost = codec_nbytes(band)
        assert band.nbytes <= cost < base.nbytes // 8

    def test_matches_wire_framing(self):
        """codec_nbytes is exactly what the socket fabric charges the
        data-movement ledger per hop payload."""
        from repro.fabric import payload

        obj = {"A": np.ones(40_000), "k": 3}
        frame, buffers = payload.encode(obj)
        assert codec_nbytes(obj) == payload.nbytes(frame, buffers)


class _Carrier(Messenger):
    def __init__(self):
        self.mA = np.zeros((4, 100), dtype=np.float64)  # agent: charged
        self.mi = 3                                     # agent: charged
        self._config = np.zeros(10_000)                 # private: free

    def main(self):
        yield self.hop((0,))


class TestAgentNbytes:
    def test_counts_public_attributes_only(self):
        messenger = _Carrier()
        total = agent_nbytes(messenger, SUN_BLADE_100)
        expected = SUN_BLADE_100.hop_state_bytes + 400 * 4 + 16
        assert total == expected


def _reference_nbytes(obj, machine) -> int:
    """The ``isinstance`` chain as it stood before ``model_nbytes`` grew
    its exact-class fast path — the ruler the fast path must match."""
    if obj is None:
        return 0
    if isinstance(obj, (np.ndarray, ShadowArray)):
        return obj.size * machine.elem_size
    if isinstance(obj, memoryview):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_reference_nbytes(x, machine) for x in obj)
    if isinstance(obj, dict):
        return sum(
            _reference_nbytes(k, machine) + _reference_nbytes(v, machine)
            for k, v in obj.items()
        )
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    return 16


class _Tagged(np.ndarray):
    """An ndarray subclass: must take the fallback chain, same size."""


_Pair = namedtuple("_Pair", "pos blk")

_small_dims = st.tuples(st.integers(0, 5), st.integers(1, 5))
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(allow_nan=False),
    st.text(max_size=6), st.binary(max_size=6),
    st.builds(np.float32, st.integers(0, 3)),
    _small_dims.map(ShadowArray),
    _small_dims.map(lambda d: np.zeros(d, dtype=np.float64)),
    _small_dims.map(lambda d: np.zeros((6, 6))[:d[0], :d[1]]),
    _small_dims.map(lambda d: np.zeros(d).view(_Tagged)),
    _small_dims.map(lambda d: memoryview(np.zeros(d))),
    # the stagger payload: [(pos, blk), ...]
    st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       _small_dims.map(ShadowArray)), max_size=4),
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.tuples(inner, inner).map(lambda t: _Pair(*t)),
        st.dictionaries(st.one_of(st.integers(0, 9), st.text(max_size=3)),
                        inner, max_size=3),
        st.frozensets(st.integers(0, 9), max_size=3),
    ),
    max_leaves=12,
)


class TestFastPathChargesTheSameBytes:
    @given(_payloads)
    def test_model_nbytes_matches_the_isinstance_chain(self, payload):
        assert model_nbytes(payload, SUN_BLADE_100) == \
            _reference_nbytes(payload, SUN_BLADE_100)

    @given(st.dictionaries(
        st.sampled_from(["mA", "mB", "mi", "blocks", "_private", "_gen"]),
        _payloads, max_size=5))
    def test_agent_nbytes_matches_the_isinstance_chain(self, attrs):
        messenger = _Carrier()
        vars(messenger).clear()
        vars(messenger).update(attrs)
        want = SUN_BLADE_100.hop_state_bytes + sum(
            _reference_nbytes(v, SUN_BLADE_100)
            for k, v in attrs.items() if not k.startswith("_"))
        assert agent_nbytes(messenger, SUN_BLADE_100) == want

    def test_model_element_size_is_the_machines(self):
        from dataclasses import replace
        wide = replace(SUN_BLADE_100, elem_size=8)
        blocks = [ShadowArray((4, 4)), np.zeros((2, 2), dtype=np.float32)]
        assert model_nbytes(blocks, wide) == 8 * (16 + 4)
        assert model_nbytes(tuple(blocks), wide) == \
            _reference_nbytes(blocks, wide)


class TestTraceLog:
    def _sample(self):
        log = TraceLog()
        log.record(t0=0.0, t1=1.0, place=0, actor="a", kind="compute")
        log.record(t0=1.0, t1=1.5, place=1, actor="a", kind="hop",
                   src_place=0)
        log.record(t0=0.5, t1=2.0, place=1, actor="b", kind="compute")
        return log

    def test_filters(self):
        log = self._sample()
        assert len(log.of_kind("compute")) == 2
        assert len(log.at_place(1)) == 2
        assert set(log.by_actor()) == {"a", "b"}

    def test_busy_time(self):
        busy = self._sample().busy_time("compute")
        assert busy == {0: 1.0, 1: 1.5}

    def test_first_compute_start(self):
        starts = self._sample().first_compute_start()
        assert starts == {0: 0.0, 1: 0.5}

    def test_makespan(self):
        assert self._sample().makespan() == 2.0
        assert TraceLog().makespan() == 0.0

    def test_disabled_records_nothing(self):
        log = TraceLog(enabled=False)
        log.record(t0=0, t1=1, place=0, actor="x", kind="compute")
        assert len(log) == 0

    def test_event_duration(self):
        event = TraceEvent(t0=1.0, t1=3.5, place=0, actor="x",
                           kind="compute")
        assert event.duration == 2.5

    def test_iteration(self):
        assert len(list(self._sample())) == 3
