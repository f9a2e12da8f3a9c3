"""Consolidation-buffer runtime and global-barrier tests (via __dp_*
intrinsics exercised from MiniCUDA kernels)."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.perf import profiling
from repro.perf.report import build_profile
from repro.sim.device import Device
from repro.sim.dp import GRAN_GRID

from tests.helpers import run_kernel


class TestBuffers:
    def test_push_and_drain_roundtrip(self):
        src = """
        __global__ void producer(int* out, int n) {
            int t = threadIdx.x;
            int h = __dp_buf_acquire(1, 64, 1);
            if (t < n) {
                __dp_buf_push1(h, t * 7);
            }
            __syncthreads();
            if (t == 0) {
                int count = __dp_buf_size(h);
                out[0] = count;
                for (int i = 0; i < count; i++) {
                    out[1 + i] = __dp_buf_get(h, i, 0);
                }
            }
        }
        """
        _, _, h = run_kernel(src, "producer", 1, 32,
                             {"out": np.zeros(40, np.int32)}, scalars=(5,))
        assert h["out"].data[0] == 5
        assert sorted(h["out"].data[1:6]) == [0, 7, 14, 21, 28]

    def test_multi_field_push(self):
        src = """
        __global__ void k(int* out) {
            int h = __dp_buf_acquire(1, 16, 3);
            __dp_buf_push3(h, 10, 20, 30);
            out[0] = __dp_buf_get(h, 0, 0);
            out[1] = __dp_buf_get(h, 0, 1);
            out[2] = __dp_buf_get(h, 0, 2);
        }
        """
        _, _, h = run_kernel(src, "k", 1, 1, {"out": np.zeros(4, np.int32)})
        assert list(h["out"].data[:3]) == [10, 20, 30]

    def test_scope_warp_vs_block(self):
        # warp-scope: two warps get different buffers; block-scope: shared
        src = """
        __global__ void k(int* out, int gran) {
            int t = threadIdx.x;
            int h = __dp_buf_acquire(gran, 128, 1);
            __dp_buf_push1(h, t);
            __syncthreads();
            if (t == 0) { out[0] = __dp_buf_size(h); }
        }
        """
        _, _, h = run_kernel(src, "k", 1, 64, {"out": np.zeros(2, np.int32)},
                             scalars=(0,))
        assert h["out"].data[0] == 32  # warp scope: only warp 0's buffer
        _, _, h = run_kernel(src, "k", 1, 64, {"out": np.zeros(2, np.int32)},
                             scalars=(1,))
        assert h["out"].data[0] == 64  # block scope: all threads

    def test_grid_scope_spans_blocks(self):
        src = """
        __global__ void k(int* out) {
            int h = __dp_buf_acquire(2, 512, 1);
            __dp_buf_push1(h, 1);
            __syncthreads();
            if (threadIdx.x == 0) {
                if (__dp_grid_arrive_last()) {
                    out[0] = __dp_buf_size(h);
                }
            }
        }
        """
        _, _, h = run_kernel(src, "k", 4, 32, {"out": np.zeros(2, np.int32)})
        assert h["out"].data[0] == 128

    def test_buffer_grows_on_overflow(self):
        src = """
        __global__ void k(int* out, int n) {
            int h = __dp_buf_acquire(1, 2, 1);
            for (int i = 0; i < n; i++) {
                __dp_buf_push1(h, i);
            }
            out[0] = __dp_buf_size(h);
            out[1] = __dp_buf_get(h, n - 1, 0);
        }
        """
        _, m, h = run_kernel(src, "k", 1, 1, {"out": np.zeros(2, np.int32)},
                             scalars=(40,))
        assert h["out"].data[0] == 40
        assert h["out"].data[1] == 39
        assert m.buffer_grows >= 1

    def test_buffer_reset(self):
        src = """
        __global__ void k(int* out) {
            int h = __dp_buf_acquire(1, 8, 1);
            __dp_buf_push1(h, 5);
            __dp_buf_reset(h);
            out[0] = __dp_buf_size(h);
        }
        """
        _, _, h = run_kernel(src, "k", 1, 1, {"out": np.zeros(1, np.int32)})
        assert h["out"].data[0] == 0

    def test_invalid_handle_raises(self):
        src = """__global__ void k(int* out) { out[0] = __dp_buf_size(12345); }"""
        dev = Device()
        prog = dev.load(src)
        out = dev.from_numpy("out", np.zeros(1, np.int32))
        with pytest.raises(SimulationError):
            prog.launch("k", 1, 1, out)

    def test_out_of_range_get_raises(self):
        src = """__global__ void k(int* out) {
            int h = __dp_buf_acquire(1, 8, 1);
            out[0] = __dp_buf_get(h, 3, 0);
        }"""
        dev = Device()
        prog = dev.load(src)
        out = dev.from_numpy("out", np.zeros(1, np.int32))
        with pytest.raises(SimulationError):
            prog.launch("k", 1, 1, out)

    def test_allocator_charged_per_buffer(self):
        src = """
        __global__ void k(int* out) {
            int h = __dp_buf_acquire(0, 32, 1);
            __dp_buf_push1(h, threadIdx.x);
        }
        """
        dev = Device(allocator="default")
        prog = dev.load(src)
        out = dev.from_numpy("out", np.zeros(1, np.int32))
        prog.launch("k", 1, 128, out)  # 4 warps -> 4 warp-scope buffers
        m = dev.synchronize()
        assert m.allocator_allocs == 4
        assert m.allocator_kind == "default"

    def test_fresh_buffers_per_kernel_instance(self):
        src = """
        __global__ void k(int* out, int slot) {
            int h = __dp_buf_acquire(1, 8, 1);
            __dp_buf_push1(h, 1);
            out[slot] = __dp_buf_size(h);
        }
        """
        dev = Device()
        prog = dev.load(src)
        out = dev.from_numpy("out", np.zeros(2, np.int32))
        prog.launch("k", 1, 1, out, 0)
        prog.launch("k", 1, 1, out, 1)
        dev.synchronize()
        assert list(out.data) == [1, 1]  # second launch got a new buffer


class TestGridBarrier:
    def test_exactly_one_last_block(self):
        src = """
        __global__ void k(int* out) {
            if (threadIdx.x == 0) {
                if (__dp_grid_arrive_last()) {
                    atomicAdd(&out[0], 1);
                }
            }
        }
        """
        _, _, h = run_kernel(src, "k", 8, 32, {"out": np.zeros(1, np.int32)})
        assert h["out"].data[0] == 1

    def test_last_block_sees_all_prior_work(self):
        src = """
        __global__ void k(int* out, int n) {
            int u = blockIdx.x * blockDim.x + threadIdx.x;
            atomicAdd(&out[1], 1);
            __syncthreads();
            if (threadIdx.x == 0) {
                if (__dp_grid_arrive_last()) {
                    out[0] = out[1];
                }
            }
        }
        """
        _, _, h = run_kernel(src, "k", 4, 16, {"out": np.zeros(2, np.int32)},
                             scalars=(64,))
        assert h["out"].data[0] == 64


# -- batched entry points against the scalar calls they stand for --------------

def _device_with_buffer(nvars, rows):
    """A device with one grid-scope buffer (capacity 64) holding ``rows``
    and some warm L2 lines."""
    dev = Device()
    handle, _ = dev.dp.acquire(SimpleNamespace(uid=1), None, GRAN_GRID, 64,
                               nvars)
    for row in rows:
        dev.dp.push(handle, row)
    dev.memsys.access_segments(range(0, 4096, 7))
    return dev, handle


def _state(dev, handle):
    buf = dev.dp.buffers[handle]
    return ([list(s) for s in dev.memsys.l2._sets], dev.memsys.counters,
            dataclasses.asdict(dev.dp.stats), buf.count,
            buf.storage.data.tolist())


_ROWS = [(3 * i, 100 + i) for i in range(40)]

_reads = st.lists(st.tuples(st.integers(0, 39), st.integers(0, 1)),
                  min_size=1, max_size=40)


class TestBatchedEntryPoints:
    @pytest.mark.parametrize("reads", [
        [(7, 1)] * 32,                                  # uniform round
        [(i % 5, i % 2) for i in range(32)],            # mixed rows
        [(0, 0)] * 3 + [(1, 1)] * 4 + [(9, 0)] * 2,     # runs of repeats
    ])
    def test_get_many_equals_scalar_gets(self, reads):
        self._check_get_many(reads)

    @given(_reads)
    @settings(max_examples=40, deadline=None)
    def test_get_many_equals_scalar_gets_fuzzed(self, reads):
        self._check_get_many(reads)

    @staticmethod
    def _check_get_many(reads):
        batched, h = _device_with_buffer(2, _ROWS)
        scalar, _ = _device_with_buffer(2, _ROWS)
        values, cycles = batched.dp.get_many(h, [r[0] for r in reads],
                                             [r[1] for r in reads])
        expected = [scalar.dp.get(h, slot, fld) for slot, fld in reads]
        assert values == [v for v, _ in expected]
        assert cycles == sum(c for _, c in expected)
        assert _state(batched, h) == _state(scalar, h)

    @pytest.mark.parametrize("slots", [[40] * 8, [0, 1, 40, 2], [-1, 0]])
    def test_get_many_out_of_range_falls_back(self, slots):
        dev, h = _device_with_buffer(2, _ROWS)
        before = _state(dev, h)
        assert dev.dp.get_many(h, slots, [0] * len(slots)) is None
        assert _state(dev, h) == before
        bad = next(s for s in slots if not 0 <= s < 40)
        with pytest.raises(SimulationError,
                           match=f"read of slot {bad} \\(count 40\\)"):
            dev.dp.get(h, bad, 0)

    @pytest.mark.parametrize("nvars,rows", [
        (1, [(5,)] * 32),                                # uniform rows
        (3, [(i, i * i, -i) for i in range(21)]),        # rows straddle
        (2, [(i, 7) for i in range(24)]),                # fills to 64
    ])
    def test_push_many_equals_scalar_pushes(self, nvars, rows):
        first = [(9,) * nvars] * 3
        batched, h = _device_with_buffer(nvars, first)
        scalar, _ = _device_with_buffer(nvars, first)
        slots, cycles = batched.dp.push_many(h, rows)
        expected = [scalar.dp.push(h, row) for row in rows]
        assert slots == [slot for slot, _ in expected]
        assert cycles == sum(c for _, c in expected)
        assert _state(batched, h) == _state(scalar, h)

    def test_push_many_past_capacity_falls_back(self):
        dev, h = _device_with_buffer(1, [(1,)] * 60)
        assert dev.dp.push_many(h, [(2,)] * 5) is None
        assert dev.dp.buffers[h].count == 60


# -- divergent rounds that read buffers, on both engines -----------------------

#: every iteration makes a uniform buf_get round, a uniform LD round, an
#: all-LD round over several arrays, then a round mixing buf_get reads
#: (one buffer) with atomics; on odd iterations one third of the lanes
#: read the buffer size instead, which keeps that round sequential
_MIXED_SRC = """
__global__ void k(int* data, int* out, int m) {
    int t = threadIdx.x;
    int h = __dp_buf_acquire(1, 64, 2);
    __dp_buf_push2(h, t, t * 3);
    __syncthreads();
    for (int s = 0; s < m; s++) {
        int u = __dp_buf_get(h, s, 0);
        int du = data[u];
        if (t % 3 == 0) {
            out[t] = out[t] + __dp_buf_get(h, (s + t) % 64, 1);
        } else if (t % 3 == 1) {
            atomicAdd(&out[u % 8], du + data[t]);
        } else {
            out[t] = out[t] + (s % 2 == 0 ? __dp_buf_get(h, s, 1)
                                          : __dp_buf_size(h));
        }
    }
}
"""


def _run_mixed(engine, m=5, src=_MIXED_SRC):
    with profiling() as collector:
        dev = Device(engine=engine)
        scalar_gets = []
        get = dev.dp.get
        dev.dp.get = lambda *args: scalar_gets.append(args) or get(*args)
        _, metrics, h = run_kernel(
            src, "k", 1, 64,
            {"data": np.arange(64, dtype=np.int32) * 5,
             "out": np.zeros(64, np.int32)},
            scalars=(m,), device=dev)
    return metrics, h["out"].to_numpy(), build_profile(collector), scalar_gets


class TestDivergentRoundReads:
    def test_engines_agree_on_metrics_and_attribution(self):
        vec, vec_out, vec_prof, vec_gets = _run_mixed("vectorized")
        ref, ref_out, ref_prof, ref_gets = _run_mixed("scalar")
        assert dataclasses.asdict(vec) == dataclasses.asdict(ref)
        np.testing.assert_array_equal(vec_out, ref_out)
        assert ([dataclasses.replace(row, rounds_batched=0)
                 for row in vec_prof.kernels]
                == [dataclasses.replace(row, rounds_batched=0)
                    for row in ref_prof.kernels])
        assert vec_prof.kernels[0].rounds_divergent > 0
        assert vec_prof.kernels[0].pops == len(ref_gets)
        # the batched reads really replaced per-lane calls: only the
        # buf_size rounds' buf_get reads stay on the scalar path
        assert 0 < len(vec_gets) < len(ref_gets) // 4

    def test_out_of_range_read_raises_the_scalar_error(self):
        src = _MIXED_SRC.replace("(s + t) % 64", "s + t + 40")
        errors = []
        for engine in ("scalar", "vectorized"):
            with pytest.raises(SimulationError) as info:
                _run_mixed(engine, src=src)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert "read of slot" in errors[0]
