"""The service wire protocol: versioned, newline-delimited JSON.

Every message is one JSON object on one line (UTF-8, ``\\n``-terminated).
A connection opens with a ``hello`` handshake carrying
:data:`PROTOCOL_VERSION`; the server rejects any other version up front
(and closes), so a client compiled against a future protocol can never
misinterpret a response. After the handshake, requests carry a
client-chosen ``id`` that the matching response echoes — responses to
pipelined requests may arrive in any order, so the ``id`` is the only
correlation.

Operations::

    {"op": "hello",    "protocol": 1}
    {"op": "submit",   "id": 7, "spec": {...}, "scale": 0.5}
    {"op": "status",   "id": 8}
    {"op": "metrics",  "id": 9}
    {"op": "shutdown", "id": 10}

Responses are ``{"ok": true, "id": ..., ...}`` or
``{"ok": false, "id": ..., "error": "..."}``.

Optional operations stay inside protocol v1 via *feature
advertisement*: the hello response lists the server's optional ops in
``features`` (:data:`FEATURES`), and a client only issues one after
seeing it advertised — an old client against a new daemon ignores the
extra hello field, a new client against an old daemon sees no
advertisement and degrades gracefully. ``metrics`` (PR 8) returns the
daemon's full telemetry registry: a structured snapshot plus a
Prometheus text rendering (``repro status --metrics``).

A submit's ``spec`` names its executor as ``engine``
(:mod:`repro.engines`). The field ``oracle`` (``sim`` | ``sim-scalar``),
v1's spelling from before the engine axis, is still accepted and lowers
onto the same spec, hence the same cache entry; any other value gets an
error reply.

This module owns the (de)serialization of the experiment types that
cross the wire: :class:`~repro.experiments.plan.RunSpec` (requests),
:class:`~repro.sim.profiler.RunMetrics` and run summaries (responses —
the dataset/result arrays never leave the server, only metrics and
provenance do), and :class:`~repro.experiments.runner.RunStats`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Optional

#: bump on any incompatible change to message shapes; the handshake
#: rejects mismatched clients before any request is interpreted
PROTOCOL_VERSION = 1

#: optional ops this server supports beyond the v1 core, advertised in
#: the hello response — additions here must never change the meaning of
#: an existing message (that is what a version bump is for)
FEATURES = ("metrics",)

#: environment variable overriding the default unix-socket path
SOCKET_ENV = "REPRO_SOCKET"

#: socket file name, beside the result store's shard directories
SOCKET_FILE = "service.sock"

#: hard cap on one wire line; a submit is ~1 KiB, so anything near this
#: is a framing bug, not a real request
MAX_LINE = 1 << 20


def default_socket_path(cache_dir=None) -> Path:
    """``$REPRO_SOCKET``, else ``<cache-dir>/service.sock`` (the cache
    directory defaulting like the result store's)."""
    env = os.environ.get(SOCKET_ENV)
    if env:
        return Path(env)
    from ..experiments.store import default_cache_dir

    root = Path(cache_dir) if cache_dir else default_cache_dir()
    return root / SOCKET_FILE


class ProtocolError(Exception):
    """A message that violates the wire protocol (bad JSON, unknown
    fields, wrong types). Distinct from :class:`~repro.service.client.ServiceError`,
    which carries an *application* failure reported by a well-formed
    response."""


def jsonable(value):
    """Recursively coerce a value to plain JSON types (NumPy scalars in
    profiler counters become Python ints/floats)."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def encode(msg: dict) -> bytes:
    """One wire line for a message."""
    return (json.dumps(jsonable(msg), separators=(",", ":")) + "\n").encode()


def decode(line: bytes) -> dict:
    """Parse one wire line; anything but a JSON object is a protocol error."""
    if len(line) > MAX_LINE:
        raise ProtocolError(f"message exceeds {MAX_LINE} bytes")
    try:
        msg = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed message: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError("message must be a JSON object")
    return msg


def ok(rid, **fields) -> dict:
    return {"ok": True, "id": rid, **fields}


def error(rid, message: str) -> dict:
    return {"ok": False, "id": rid, "error": str(message)}


# -- experiment types on the wire ---------------------------------------------

#: RunSpec fields a submit may carry (everything else is rejected, so a
#: typo'd axis fails loudly instead of silently running the default);
#: ``oracle`` is the v1 spelling of ``engine``, lowered on decode
_SPEC_FIELDS = ("app", "variant", "allocator", "config", "dataset",
                "cost", "threshold", "strategy", "workload", "engine",
                "oracle")


def spec_to_wire(spec) -> dict:
    """A :class:`~repro.experiments.plan.RunSpec` as a wire dict
    (defaults omitted, so the common case is a three-key object)."""
    out = {"app": spec.app, "variant": spec.variant}
    if spec.allocator != "custom":
        out["allocator"] = spec.allocator
    if spec.config is not None:
        out["config"] = list(spec.config)
    if spec.dataset is not None:
        out["dataset"] = spec.dataset
    if spec.cost is not None:
        out["cost"] = dataclasses.asdict(spec.cost)
    if spec.threshold is not None:
        out["threshold"] = spec.threshold
    if spec.strategy is not None:
        out["strategy"] = spec.strategy
    if spec.workload is not None:
        out["workload"] = spec.workload
    if spec.engine is not None:
        out["engine"] = spec.engine
    return out


def spec_from_wire(d: dict):
    """Rebuild a RunSpec, validating field names and shapes."""
    from ..engines import EngineError, from_legacy
    from ..experiments.plan import RunSpec
    from ..run_config import canonical_engine
    from ..sim.specs import CostModel

    if not isinstance(d, dict):
        raise ProtocolError("submit needs a 'spec' object")
    unknown = set(d) - set(_SPEC_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown RunSpec field(s): {', '.join(sorted(unknown))}")
    for field in ("app", "variant"):
        if not isinstance(d.get(field), str):
            raise ProtocolError(f"spec.{field} must be a string")
    config = d.get("config")
    if config is not None:
        if not (isinstance(config, (list, tuple)) and len(config) == 3
                and all(isinstance(x, (str, int, float)) or x is None
                        for x in config)):
            raise ProtocolError(
                "spec.config must be a [mode, blocks, threads] triple "
                "of scalars")
        config = tuple(config)
    threshold = d.get("threshold")
    if threshold is not None and not isinstance(threshold, int):
        raise ProtocolError("spec.threshold must be an integer")
    for field in ("allocator", "dataset", "strategy", "workload", "engine",
                  "oracle"):
        value = d.get(field)
        if value is not None and not isinstance(value, str):
            raise ProtocolError(f"spec.{field} must be a string")
    cost = d.get("cost")
    if cost is not None:
        if not (isinstance(cost, dict)
                and all(isinstance(v, (int, float)) for v in cost.values())):
            raise ProtocolError("spec.cost must be an object of numeric "
                                "cost-model fields")
        try:
            cost = CostModel(**cost)
        except TypeError as exc:
            raise ProtocolError(f"bad cost model: {exc}") from None
    try:
        engine = canonical_engine(d.get("engine"))
        legacy = from_legacy("oracle", d.get("oracle"))
    except EngineError as exc:
        raise ProtocolError(str(exc)) from None
    if legacy is not None:
        if d.get("engine") is not None and engine != legacy:
            raise ProtocolError(f"spec.oracle {d['oracle']!r} contradicts "
                                f"spec.engine {d['engine']!r}")
        engine = legacy
    return RunSpec(
        app=d["app"], variant=d["variant"],
        allocator=d.get("allocator", "custom"), config=config,
        dataset=d.get("dataset"), cost=cost,
        threshold=threshold, strategy=d.get("strategy"),
        workload=d.get("workload"), engine=engine,
    )


def run_to_wire(run) -> dict:
    """The client-facing summary of an executed
    :class:`~repro.apps.common.AppRun`: identity, provenance and the full
    profiler metrics — never the result array (it can be hundreds of MB
    and no service client consumes it)."""
    return {
        "app": run.app,
        "variant": run.variant,
        "strategy": run.strategy,
        "dataset": run.dataset,
        "checked": bool(run.checked),
        "metrics": dataclasses.asdict(run.metrics),
    }


def metrics_from_wire(d: dict):
    """Rebuild :class:`~repro.sim.profiler.RunMetrics` from a response."""
    from ..sim.profiler import RunMetrics

    try:
        return RunMetrics(**d)
    except TypeError as exc:
        raise ProtocolError(f"bad metrics payload: {exc}") from None


def stats_to_wire(stats) -> dict:
    return {"executed": stats.executed, "memory_hits": stats.memory_hits,
            "disk_hits": stats.disk_hits}


def stats_from_wire(d: Optional[dict]):
    from ..experiments.runner import RunStats

    d = d or {}
    return RunStats(executed=int(d.get("executed", 0)),
                    memory_hits=int(d.get("memory_hits", 0)),
                    disk_hits=int(d.get("disk_hits", 0)))
