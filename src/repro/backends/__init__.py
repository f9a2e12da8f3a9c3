"""Targets beside the simulator: the CPU interpreter and the CUDA emitter.

``cpu``
    an independent NumPy-backed interpreter (:class:`CpuDevice`) that
    executes programs without a timing model; it is the ``cpu`` entry of
    the engine registry (:mod:`repro.engines`, ``repro run --engine
    cpu``) and the differential cross-check of the simulator;
``cuda``
    a CUDA-C emitter (:func:`emit_cuda`) producing compilable ``.cu``
    files (golden-file tested; ``repro compile <app> --target cuda``).
"""

from __future__ import annotations

from .cpu import CpuDevice, CpuJob, run_job, run_jobs
from .cuda import check_cu_syntax, clear_emit_cache, emit_cuda, normalize_cuda

__all__ = [
    "CpuDevice",
    "CpuJob",
    "run_job",
    "run_jobs",
    "emit_cuda",
    "normalize_cuda",
    "check_cu_syntax",
    "clear_emit_cache",
]
