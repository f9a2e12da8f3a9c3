"""CUDA-C emitter: lower MiniCUDA to a compilable ``.cu`` file.

The engines execute MiniCUDA; this module *emits* it — a
self-contained CUDA translation unit with real ``<<<grid, block>>>``
child launches, so the consolidated kernels (including the per-strategy
designated-launcher loops the transforms synthesize) can be inspected,
diffed against goldens, and compiled with ``nvcc`` on a real machine.
No GPU or CUDA toolkit is needed here: emission is pure text, tested by
golden files and a syntax sanity checker.

Layout of an emitted unit, in order:

1. a fixed banner (no timestamps — output is a function of input only);
2. standard includes;
3. the ``__dp_*`` consolidation runtime, emitted **only if** the program
   calls any ``__dp_*`` intrinsic (i.e. it went through the consolidation
   transforms): a scope-keyed buffer table (open-addressed, claimed by
   ``atomicCAS`` on a packed epoch/block/warp key), a bump allocator over
   a host-provided heap, and the grid-barrier countdown;
4. forward declarations of every function in the module (consolidated
   modules reference drain kernels before their definitions);
5. the functions themselves, unparsed by the standard
   :mod:`repro.frontend.unparser` with ``#pragma dp`` wrappers stripped;
6. ``extern "C"`` host stubs: ``launch_<kernel>`` wrappers around the
   triple-chevron syntax plus (when the runtime is present) setup entry
   points — the host-device split follows the kernel-cache idiom of
   parakeet's ``CudaCompiler``.

Emission is deterministic and cached: identical (source, options) pairs
return the identical string, memoized in a module-level table keyed by
content hash (cleared with :func:`clear_emit_cache`).
"""

from __future__ import annotations

import hashlib
import re

from ..frontend import ast_nodes as A
from ..frontend.parser import parse
from ..frontend.typecheck import check_module
from ..frontend.unparser import Unparser


#: bump when emitted text changes shape; part of the cache key so stale
#: entries can never leak across versions in long-lived processes
EMITTER_VERSION = 1

_EMIT_CACHE: dict[str, str] = {}


def clear_emit_cache() -> None:
    _EMIT_CACHE.clear()


class _StripPragmas(A.Transformer):
    """``#pragma dp`` is a compiler directive, not CUDA — unwrap it."""

    def visit_PragmaStmt(self, node: A.PragmaStmt):
        return node.stmt


_BANNER = """\
// Generated by repro.backends.cuda (emitter v{version})
// module: {name}
// This file is self-contained: compile with
//   nvcc -arch=sm_35 -rdc=true -o {name} {name}.cu -lcudadevrt
"""

_INCLUDES = """\
#include <cuda_runtime.h>
#include <cassert>
#include <cfloat>
#include <climits>
#include <cstdint>
#include <cstdio>
"""

#: Device-side consolidation runtime. Mirrors the semantics the
#: simulator's DPRuntime provides to generated code: `acquire` is
#: idempotent per (epoch, scope) key, `push` appends atomically and
#: returns the claimed slot, `get`/`size` read back, the grid barrier is
#: an atomicSub countdown armed by the host before the parent launch.
_DP_RUNTIME = """\
// --- dynamic-parallelism consolidation runtime ------------------------
#define __DP_MAX_BUFFERS 1024

struct __dp_buffer_t {
    unsigned long long key;   // packed scope key; 0 = free
    long long* data;          // slots * nvars fields
    int nvars;
    unsigned int count;       // slots pushed so far
    unsigned int capacity;    // max slots
};

__device__ __dp_buffer_t __dp_buffers[__DP_MAX_BUFFERS];
__device__ long long* __dp_heap;
__device__ unsigned long long __dp_heap_words;
__device__ unsigned long long __dp_heap_bump;
__device__ unsigned int __dp_epoch;
__device__ int __dp_grid_remaining;

__device__ __forceinline__ int __dp_lane() { return threadIdx.x & 31; }
__device__ __forceinline__ int __dp_warp_id() { return threadIdx.x >> 5; }

// Pack (epoch, scope coordinates) into one 64-bit CAS-able key. The
// granularity codes match the compiler: 0 = warp, 1 = block, 2 = grid.
__device__ __forceinline__ unsigned long long __dp_scope_key(int gran) {
    unsigned long long block = (gran <= 1) ? (unsigned long long)blockIdx.x + 1 : 0;
    unsigned long long warp = (gran == 0) ? (unsigned long long)__dp_warp_id() + 1 : 0;
    return ((unsigned long long)__dp_epoch << 40)
         | (block << 12) | (warp << 2) | (unsigned long long)gran | 1ULL;
}

__device__ int __dp_buf_acquire(int gran, int slots, int nvars) {
    unsigned long long key = __dp_scope_key(gran);
    unsigned int h = (unsigned int)(key ^ (key >> 17)) % __DP_MAX_BUFFERS;
    for (int probe = 0; probe < __DP_MAX_BUFFERS; probe++) {
        unsigned int i = (h + probe) % __DP_MAX_BUFFERS;
        unsigned long long seen =
            atomicCAS(&__dp_buffers[i].key, 0ULL, key);
        if (seen == 0ULL) {
            // claimed: carve slot storage out of the heap
            unsigned long long words =
                (unsigned long long)slots * (unsigned long long)nvars;
            unsigned long long base =
                atomicAdd(&__dp_heap_bump, words);
            assert(base + words <= __dp_heap_words);
            __dp_buffers[i].data = __dp_heap + base;
            __dp_buffers[i].nvars = nvars;
            __dp_buffers[i].capacity = (unsigned int)slots;
            __threadfence();
            atomicExch(&__dp_buffers[i].count, 0u);
            return (int)i + 1;
        }
        if (seen == key) {
            return (int)i + 1;  // another thread of the scope got here first
        }
    }
    assert(0 && "consolidation buffer table exhausted");
    return 0;
}

__device__ __forceinline__ __dp_buffer_t* __dp_buf(int handle) {
    return &__dp_buffers[handle - 1];
}

__device__ __forceinline__ int __dp_push_fields(
        int handle, const long long* vals, int n) {
    __dp_buffer_t* b = __dp_buf(handle);
    unsigned int slot = atomicAdd(&b->count, 1u);
    assert(slot < b->capacity);
    for (int k = 0; k < n; k++) {
        b->data[(unsigned long long)slot * b->nvars + k] = vals[k];
    }
    return (int)slot;
}

__device__ int __dp_buf_push1(int h, long long a) {
    long long v[1] = {a};
    return __dp_push_fields(h, v, 1);
}

__device__ int __dp_buf_push2(int h, long long a, long long b) {
    long long v[2] = {a, b};
    return __dp_push_fields(h, v, 2);
}

__device__ int __dp_buf_push3(int h, long long a, long long b, long long c) {
    long long v[3] = {a, b, c};
    return __dp_push_fields(h, v, 3);
}

__device__ int __dp_buf_push4(int h, long long a, long long b, long long c,
                              long long d) {
    long long v[4] = {a, b, c, d};
    return __dp_push_fields(h, v, 4);
}

__device__ long long __dp_buf_get(int h, int slot, int field) {
    __dp_buffer_t* b = __dp_buf(h);
    return b->data[(unsigned long long)slot * b->nvars + field];
}

__device__ int __dp_buf_size(int h) {
    return (int)__dp_buf(h)->count;
}

__device__ void __dp_buf_reset(int h) {
    atomicExch(&__dp_buf(h)->count, 0u);
}

__device__ int __dp_grid_arrive_last() {
    return atomicSub(&__dp_grid_remaining, 1) == 1;
}

__global__ void __dp_runtime_clear() {
    unsigned int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < __DP_MAX_BUFFERS) {
        __dp_buffers[i].key = 0ULL;
        __dp_buffers[i].count = 0u;
    }
    if (i == 0) {
        __dp_heap_bump = 0ULL;
    }
}
// --- end consolidation runtime ----------------------------------------
"""

_DP_HOST_STUBS = """\
// Arm the runtime before each parent launch: bump the epoch (invalidates
// stale scope keys), clear the buffer table, and set the grid-barrier
// countdown to the parent grid size.
extern "C" void dp_runtime_setup(long long* heap_dev,
                                 unsigned long long heap_words) {
    cudaMemcpyToSymbol(__dp_heap, &heap_dev, sizeof(heap_dev));
    cudaMemcpyToSymbol(__dp_heap_words, &heap_words, sizeof(heap_words));
}

extern "C" void dp_epoch_begin(unsigned int epoch, int grid_blocks) {
    cudaMemcpyToSymbol(__dp_epoch, &epoch, sizeof(epoch));
    cudaMemcpyToSymbol(__dp_grid_remaining, &grid_blocks,
                       sizeof(grid_blocks));
    __dp_runtime_clear<<<(__DP_MAX_BUFFERS + 255) / 256, 256>>>();
}
"""


def _forward_decl(fn: A.FunctionDef) -> str:
    quals = " ".join(sorted(fn.qualifiers)) + (" " if fn.qualifiers else "")
    params = ", ".join(
        ("const " if p.const else "") + f"{p.type} {p.name}"
        for p in fn.params)
    return f"{quals}{fn.ret_type} {fn.name}({params});"


def _launch_stub(fn: A.FunctionDef) -> str:
    params = ", ".join(f"{p.type} {p.name}" for p in fn.params)
    args = ", ".join(p.name for p in fn.params)
    sep = ", " if params else ""
    return (f"extern \"C\" void launch_{fn.name}"
            f"(dim3 grid, dim3 block{sep}{params}) {{\n"
            f"    {fn.name}<<<grid, block>>>({args});\n"
            f"}}")


def emit_cuda(source: str, *, name: str = "minicuda",
              include_host_stubs: bool = True) -> str:
    """Lower MiniCUDA source text to a self-contained ``.cu`` unit."""
    key = hashlib.sha256(
        f"{EMITTER_VERSION}\x00{name}\x00{include_host_stubs}\x00{source}"
        .encode()).hexdigest()
    cached = _EMIT_CACHE.get(key)
    if cached is not None:
        return cached

    module = parse(source)
    check_module(module, allow_reserved=True)
    module = _StripPragmas().visit(module)

    used_intrinsics = sorted({
        node.callee for node in A.walk(module)
        if isinstance(node, A.Call) and node.callee.startswith("__dp_")
    })
    needs_runtime = bool(used_intrinsics)

    unparser = Unparser()
    functions = module.functions()

    parts = [_BANNER.format(version=EMITTER_VERSION, name=name), _INCLUDES]
    if needs_runtime:
        parts.append(_DP_RUNTIME)
    if functions:
        decls = "\n".join(_forward_decl(fn) for fn in functions)
        parts.append(f"// --- forward declarations ---\n{decls}\n")
    parts.append(unparser.module(module))
    if include_host_stubs:
        stubs = [_launch_stub(fn) for fn in functions if fn.is_kernel]
        if needs_runtime:
            stubs.append(_DP_HOST_STUBS.rstrip("\n"))
        if stubs:
            parts.append("// --- host stubs ---\n" + "\n\n".join(stubs) + "\n")

    text = "\n".join(parts)
    _EMIT_CACHE[key] = text
    return text


# ------------------------------------------------------------- test helpers

_LINE_COMMENT = re.compile(r"//[^\n]*")
_BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.S)
_WS_RUN = re.compile(r"[ \t]+")


def normalize_cuda(text: str) -> str:
    """Comment/whitespace-insensitive form of a ``.cu`` file.

    Golden tests compare normalized text so that comment rewording or
    re-indentation does not churn fixtures; real code changes still do.
    """
    text = _BLOCK_COMMENT.sub(" ", text)
    text = _LINE_COMMENT.sub("", text)
    lines = []
    for line in text.split("\n"):
        line = _WS_RUN.sub(" ", line).strip()
        if line:
            lines.append(line)
    return "\n".join(lines)


_DECL_RE = re.compile(
    r'(?:__global__|__device__|extern\s+"C")[^;{()]*?\b(\w+)\s*\(')
_LAUNCH_RE = re.compile(r"\b(\w+)\s*<<<")
_CALL_RE = re.compile(r"\b(\w+)\s*\(")


def check_cu_syntax(text: str) -> list[str]:
    """Minimal structural sanity check for emitted CUDA; returns a list
    of problems (empty = pass).

    Checks: balanced braces/parentheses/brackets outside strings and
    comments, and every ``<<<``-launched or called locally-defined
    function is declared before its first use.
    """
    problems: list[str] = []
    stripped = _BLOCK_COMMENT.sub(
        lambda m: " " * len(m.group()), text)
    stripped = _LINE_COMMENT.sub(lambda m: " " * len(m.group()), stripped)
    # blank out string and char literals (preserving offsets)
    stripped = re.sub(
        r'"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\'',
        lambda m: '"' + " " * (len(m.group()) - 2) + '"', stripped)

    pairs = {"}": "{", ")": "(", "]": "["}
    stack: list[str] = []
    for ch in stripped:
        if ch in "{([":
            stack.append(ch)
        elif ch in "})]":
            if not stack or stack[-1] != pairs[ch]:
                problems.append(f"unbalanced {ch!r}")
                break
            stack.pop()
    if stack:
        problems.append(f"unclosed {stack[-1]!r}")

    declared_at: dict[str, int] = {}
    for m in _DECL_RE.finditer(stripped):
        declared_at.setdefault(m.group(1), m.start())
    for m in _LAUNCH_RE.finditer(stripped):
        fn = m.group(1)
        first = declared_at.get(fn)
        if first is None:
            problems.append(f"launch of undeclared kernel {fn!r}")
        elif first > m.start():
            problems.append(f"kernel {fn!r} launched before declaration")
    for m in _CALL_RE.finditer(stripped):
        fn = m.group(1)
        first = declared_at.get(fn)
        if first is not None and first > m.start():
            problems.append(f"function {fn!r} called before declaration")
    return problems
