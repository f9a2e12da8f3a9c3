"""Content-addressed on-disk store for experiment results.

Every :class:`~repro.apps.common.AppRun` is addressed by a stable hash of
*everything that determines it*: the app key, variant, allocator, launch
configuration, the dataset's content fingerprint, every cost-model field,
the device spec, the delegation threshold, the verify flag, and the
package version. Two runs with value-equal inputs therefore share one
cache entry — across processes and across invocations — while any change
to a cost constant, a dataset generator, or the package itself changes
the address and forces re-execution.

This replaces the seed runner's in-process ``id(cost_obj)`` key, which
was doubly wrong: it missed sharing between value-equal cost models, and
``id()`` values are reused after garbage collection, so a *different*
cost model could silently hit a stale entry.

Entries are pickled ``AppRun`` objects written atomically
(temp file + ``os.replace``), so concurrent writers — e.g. two
``repro all --jobs N`` invocations against one cache directory — never
expose torn files. Unreadable entries are treated as misses and removed.

Writes land in **shard directories** (``shard-NN/``, NN derived from the
content address), so the N concurrent writers of an experiment service
(:mod:`repro.service`) spread directory-entry churn across ``shards``
independent directories instead of contending on one. Reads remain
transparently compatible with the pre-shard flat layout
(``<key[:2]>/<key>.pkl``): a lookup tries the computed shard first, then
the legacy path, then every shard directory (covering stores written
with a different shard count) — and the first ``put`` of a key migrates
its legacy entry into the shard layout, so mixed-layout stores converge
without a rewrite pass. See DESIGN.md §13.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

#: bump to invalidate every existing cache entry on a format change
#: (2: strategy axis added to the key payload, RunMetrics gained fields)
STORE_FORMAT = 2

#: environment variable overriding the default cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: default number of shard directories new entries are spread across
DEFAULT_SHARDS = 16

#: environment variable overriding the shard count
SHARDS_ENV = "REPRO_STORE_SHARDS"


def default_shards() -> int:
    """``$REPRO_STORE_SHARDS``, else :data:`DEFAULT_SHARDS`."""
    env = os.environ.get(SHARDS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return DEFAULT_SHARDS


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-wulb16``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-wulb16"


def _hash_value(h, value) -> None:
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    else:
        h.update(repr(value).encode())


def dataset_fingerprint(dataset) -> str:
    """Content hash of a dataset (CSR graph, tree, or any dataclass of
    NumPy arrays and scalars)."""
    h = hashlib.sha256()
    h.update(type(dataset).__name__.encode())
    if dataclasses.is_dataclass(dataset):
        for f in dataclasses.fields(dataset):
            h.update(f.name.encode())
            _hash_value(h, getattr(dataset, f.name))
    else:
        _hash_value(h, dataset)
    return h.hexdigest()


def run_key(*, app: str, variant: str, allocator: str,
            config: Optional[tuple], dataset_fp: str,
            cost, spec, threshold: int, verify: bool,
            version: str, strategy: Optional[str] = None,
            workload: Optional[str] = None,
            engine: Optional[str] = None) -> str:
    """Stable content address for one application run.

    ``strategy`` is the consolidation-strategy axis; it is ``None`` for
    the built-in granularities (their canonical spelling is the variant
    itself) and a registry name for plugin strategies running under the
    ``'consolidated'`` variant.

    ``workload`` is the canonical workload reference, already folded
    onto ``None`` for each app's default by the runner. It enters the
    payload **only when set**: the dataset's content is fully captured
    by ``dataset_fp`` (the name is provenance, guarding against two
    workloads that happen to collide on content), and omitting the
    ``None`` case keeps every pre-PR-4 key byte-identical — which is why
    the workload axis did *not* bump ``STORE_FORMAT`` (DESIGN.md §12).

    ``engine`` follows the same only-when-set rule: the default folds
    onto ``None`` before keying, and a non-default engine enters under
    its :func:`repro.engines.key_field` entry — ``scalar`` as
    ``oracle: sim-scalar`` and ``cpu`` as ``backend: cpu``, the fields
    those runs were keyed under before the engine axis — so every
    existing address is unchanged (DESIGN.md §14). The two simulator
    engines give bitwise-identical metrics, so their distinct addresses
    record only *which implementation* produced an entry.
    """
    payload = {
        "format": STORE_FORMAT,
        "version": version,
        "app": app,
        "variant": variant,
        "strategy": strategy,
        "allocator": allocator,
        "config": list(config) if config is not None else None,
        "dataset": dataset_fp,
        "cost": dataclasses.asdict(cost),
        "spec": dataclasses.asdict(spec),
        "threshold": threshold,
        "verify": verify,
    }
    if workload is not None:
        payload["workload"] = workload
    if engine is not None:
        from ..engines import key_field

        field, value = key_field(engine)
        payload[field] = value
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultStore:
    """Filesystem-backed map from content address to pickled AppRun.

    The store directory is created lazily, on the first :meth:`put` —
    read-only operations (``repro cache info`` on a directory that does
    not exist yet, lookups against an empty cache) simply report an
    empty store instead of touching the filesystem or raising.

    New entries are spread across ``shards`` shard directories
    (``shard-NN/``); lookups additionally fall back to the pre-shard
    flat layout (``<key[:2]>/``) and to shard directories written under
    a different shard count, so any mix of layouts reads as one store.
    """

    #: glob pattern matching flat-layout (pre-shard) subdirectories —
    #: two hex characters, the first bytes of the content address
    _LEGACY_GLOB = "[0-9a-f][0-9a-f]"

    def __init__(self, root: Path | str, shards: Optional[int] = None):
        self.root = Path(root)
        self.shards = shards if shards is not None else default_shards()

    # -- layout ----------------------------------------------------------------

    def shard_for(self, key: str) -> int:
        """Stable shard index of a content address (independent of the
        process, so every writer agrees on the placement)."""
        return int(key[:8], 16) % self.shards

    def path_for(self, key: str) -> Path:
        """Where :meth:`put` writes a key (its shard directory)."""
        return self.root / f"shard-{self.shard_for(key):02d}" / f"{key}.pkl"

    def _legacy_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _locate(self, key: str) -> Optional[Path]:
        """The on-disk path currently holding a key, or None.

        Checks the computed shard, then the flat legacy layout, then —
        for stores written under a different shard count — every shard
        directory (one readdir, only on the miss path; misses are
        followed by a simulation, which dwarfs it).
        """
        path = self.path_for(key)
        if path.exists():
            return path
        legacy = self._legacy_path(key)
        if legacy.exists():
            return legacy
        for other in self.root.glob(f"shard-*/{key}.pkl"):
            return other
        return None

    def get(self, key: str):
        """The stored AppRun, or None; corrupt entries count as misses."""
        path = self._locate(key)
        if path is None:
            return None
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, ValueError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, run) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(run, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # migrate-on-write: a rewritten key must not leave stale copies
        # behind in the flat layout or in a shard computed under a
        # different shard count — either would double-count the entry.
        # Only copies measurably *older* than this write are removed: a
        # concurrent writer configured with a different shard count
        # lands the same key milliseconds apart, and unlinking its
        # fresh copy symmetrically could drop the key from disk
        # entirely. Same-age duplicates are left for a later rewrite to
        # collect (they hold identical deterministic content).
        try:
            own_mtime = path.stat().st_mtime
        except OSError:
            return
        for stale in (self._legacy_path(key),
                      *self.root.glob(f"shard-*/{key}.pkl")):
            if stale == path:
                continue
            try:
                if stale.stat().st_mtime < own_mtime - 1.0:
                    stale.unlink()
            except OSError:
                pass

    def __contains__(self, key: str) -> bool:
        return self._locate(key) is not None

    def _entries(self) -> list[Path]:
        return (list(self.root.glob("shard-*/*.pkl"))
                + list(self.root.glob(f"{self._LEGACY_GLOB}/*.pkl")))

    def shard_info(self) -> dict:
        """Layout summary for ``repro cache info``: configured shard
        count, how many shard directories hold entries, and how many
        entries still sit in the flat legacy layout."""
        sharded = list(self.root.glob("shard-*/*.pkl"))
        legacy = list(self.root.glob(f"{self._LEGACY_GLOB}/*.pkl"))
        return {
            "shards": self.shards,
            "populated": len({p.parent.name for p in sharded}),
            "sharded_entries": len(sharded),
            "legacy_entries": len(legacy),
        }

    def __len__(self) -> int:
        return len(self._entries())

    def size_bytes(self) -> int:
        total = 0
        for p in self._entries():
            try:
                total += p.stat().st_size
            except OSError:
                # racing a writer whose migrate-on-write just unlinked
                # this copy; the entry lives on at its new path
                pass
        return total

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        entries = self._entries()
        for path in entries:
            try:
                path.unlink()
            except OSError:
                pass
        return len(entries)

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"
