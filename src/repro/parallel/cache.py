"""Content-addressed result cache: in-memory LRU plus optional disk store.

:class:`ContentCache` maps a structural fingerprint (see
:mod:`repro.parallel.fingerprint`) to a pickled value.  Entries are stored
as pickle *bytes*, never as live objects, so every hit hands the caller a
fresh deep copy — cached results cannot alias each other and a caller
mutating one cannot poison later hits.  With a ``directory`` the same
bytes are persisted as ``<key>.pkl`` files, so warm state survives the
process and can be shared between runs (``repro --cache-dir``).

The process-wide *synthesis cache* consulted by
:func:`repro.core.flow.synthesize` lives here too; its entries are
``(mdl text, obs report, pickled graph)`` tuples, so a hit serves the
stored artifact and the graph is unpickled only if a caller reads it.
It is **opt-in**:
disabled until :func:`configure` enables it, ``REPRO_CACHE=1`` /
``REPRO_CACHE_DIR`` is set in the environment, or the CLI is given
``--cache-dir``.  ``REPRO_NO_CACHE=1`` (and ``--no-cache``) force it off.

Every cache operation feeds the current :mod:`repro.obs` recorder:
``cache.<name>.hit`` / ``.hit_disk`` / ``.miss`` / ``.store`` /
``.evict`` / ``.unpicklable`` counters and a ``cache.<name>.entries``
gauge, so hit rates show up in ``--metrics-out`` without extra wiring.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs import recorder as _obs

#: Default number of in-memory entries the synthesis cache retains.
DEFAULT_CAPACITY = 64


class ContentCache:
    """An LRU of pickled values keyed by content fingerprint."""

    def __init__(
        self,
        name: str = "cache",
        *,
        capacity: int = DEFAULT_CAPACITY,
        directory: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.name = name
        self.capacity = capacity
        self.directory = directory
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        if directory:
            os.makedirs(directory, exist_ok=True)

    # -- internals ---------------------------------------------------------
    def _metric(self, event: str) -> None:
        _obs.get().incr(f"cache.{self.name}.{event}")

    def _path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{key}.pkl")

    def _remember(self, key: str, blob: bytes) -> None:
        self._entries[key] = blob
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._metric("evict")
        _obs.get().gauge(f"cache.{self.name}.entries", len(self._entries))

    # -- API ---------------------------------------------------------------
    def get(
        self, key: str, accept: Optional[Callable[[Any], bool]] = None
    ) -> Optional[Any]:
        """The value stored under ``key`` (a fresh copy), or ``None``.

        Memory is consulted first, then the disk store; a disk hit is
        promoted into memory.  A disk entry that cannot be read or
        decoded, and a value ``accept`` rejects (an entry of another
        layout), count as misses.
        """
        blob = self._entries.get(key)
        if blob is not None:
            value = pickle.loads(blob)
            if accept is None or accept(value):
                self._entries.move_to_end(key)
                self._metric("hit")
                return value
            del self._entries[key]
        elif self.directory:
            try:
                with open(self._path(key), "rb") as handle:
                    blob = handle.read()
            except OSError:
                blob = None
            if blob is not None:
                try:
                    value = pickle.loads(blob)
                except Exception:  # foreign bytes raise almost anything
                    blob = None
            if blob is not None and (accept is None or accept(value)):
                self._remember(key, blob)
                self._metric("hit_disk")
                return value
        self._metric("miss")
        return None

    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` under ``key``; ``False`` when it won't pickle.

        Unpicklable values (e.g. results carrying closure behaviours) are
        skipped gracefully — caching is an optimization, never a
        correctness requirement.
        """
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self._metric("unpicklable")
            return False
        self._remember(key, blob)
        self._metric("store")
        if self.directory:
            self._write_disk(key, blob)
        return True

    def _write_disk(self, key: str, blob: bytes) -> None:
        """Atomically persist one entry (tmp file + rename)."""
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, self._path(key))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            pass  # a read-only or full disk degrades to memory-only

    def clear(self) -> None:
        """Drop every in-memory entry (disk files are left alone)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def info(self) -> Dict[str, Any]:
        """A JSON-ready description for observability reports."""
        return {
            "name": self.name,
            "entries": len(self._entries),
            "capacity": self.capacity,
            "directory": self.directory,
        }


# ---------------------------------------------------------------------------
# The process-wide synthesis cache
# ---------------------------------------------------------------------------

#: ``enabled`` is tri-state: None defers to the environment variables.
_config: Dict[str, Any] = {
    "enabled": None,
    "directory": None,
    "capacity": DEFAULT_CAPACITY,
}
_instance: Optional[ContentCache] = None


def configure(
    *,
    enabled: Optional[bool] = None,
    directory: Optional[str] = None,
    capacity: Optional[int] = None,
) -> None:
    """(Re)configure the process-wide synthesis cache.

    Each call fully respecifies ``enabled`` and ``directory``
    (``enabled=None`` restores environment-driven behaviour,
    ``directory=None`` means memory-only); ``capacity=None`` keeps the
    current capacity.  Any change discards the current instance so the
    next lookup rebuilds it.
    """
    global _instance
    _config["enabled"] = enabled
    _config["directory"] = directory
    if capacity is not None:
        _config["capacity"] = capacity
    _instance = None


def snapshot() -> Tuple[Dict[str, Any], Optional[ContentCache]]:
    """The current configuration + instance, for :func:`restore`."""
    return dict(_config), _instance


def restore(state: Tuple[Dict[str, Any], Optional[ContentCache]]) -> None:
    """Reinstate a configuration captured by :func:`snapshot`."""
    global _instance
    config, instance = state
    _config.clear()
    _config.update(config)
    _instance = instance


def _env_enabled() -> bool:
    if os.environ.get("REPRO_NO_CACHE"):
        return False
    return bool(
        os.environ.get("REPRO_CACHE") or os.environ.get("REPRO_CACHE_DIR")
    )


def synthesis_cache() -> Optional[ContentCache]:
    """The active synthesis cache, or ``None`` when caching is off."""
    enabled = _config["enabled"]
    if enabled is None:
        enabled = _env_enabled()
    if not enabled:
        return None
    return force_synthesis_cache()


def force_synthesis_cache() -> ContentCache:
    """The process-wide instance, regardless of the enabled switch.

    Backs ``synthesize(..., use_cache=True)``: the per-call override must
    hit a persistent cache even when process-wide caching is off.
    """
    global _instance
    if _instance is None:
        directory = _config["directory"] or os.environ.get("REPRO_CACHE_DIR")
        _instance = ContentCache(
            "synthesize",
            capacity=_config["capacity"],
            directory=directory or None,
        )
    return _instance
