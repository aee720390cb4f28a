"""Zero-copy shared-memory data plane for the process-pool layer.

Every :func:`~repro.experiments.parallel.parallel_map` task pickles its
whole payload through a pipe.  That is fine for sweep points measured in
kilobytes, but a production-scale scheme sweep
(:func:`repro.experiments.common.run_schemes_sweep`, the one adopter)
re-sends every point's rate vectors — the comms-versus-compute tradeoff
quantified by Berenbrink et al. for distributed selfish load balancing,
showing up inside one machine.  (Replication studies need no plane:
their workers draw their own demand from the seeds they receive, see
:mod:`repro.experiments.replication`.)

This module removes the re-shipping:

* :class:`SharedArrayPlane` publishes read-only numpy arrays **once**
  into :mod:`multiprocessing.shared_memory` blocks.  Blocks are
  content-hash keyed (publishing equal bytes twice returns the same
  block — a cache hit, not a second copy) and guaranteed a
  ``close()``/``unlink()`` end of life through the context-manager
  protocol plus a module ``atexit`` sweep that reaps any plane a
  crashing caller left open.
* :class:`ArrayRef` is the picklable handle a task payload carries
  instead of the array: a few dozen bytes naming the block, dtype,
  shape and content token.
* :func:`resolve` rehydrates a handle inside a worker to a *read-only
  view* of the shared block — no copy, no deserialization — through a
  per-worker cache, so repeated tasks touching the same block attach
  exactly once (:func:`worker_cache_stats` exposes the hit count).
* :func:`rehydrate` memoizes worker-side *construction* on top of
  :func:`resolve`: reconstructing a validated object (a
  ``DistributedSystem``, a ``StrategyProfile``) from shared arrays is
  keyed by the content tokens, so repeated tasks pay the validation
  copy once per worker rather than once per task.

Degradation is graceful and explicit: when shared memory is unavailable
(platform without ``/dev/shm``, ``REPRO_SHM=0``) or an array is below
:data:`DEFAULT_MIN_BYTES` (block setup costs more than pickling small
arrays), :meth:`SharedArrayPlane.publish` returns the array itself and
the pickling path simply continues — callers treat
``ArrayRef | ndarray`` uniformly through :func:`resolve`.  Results are
bit-identical either way: a shared block carries the exact bytes of the
published array.

Telemetry (docs/OBSERVABILITY.md): the plane emits one
``pool.shm.publish`` event per new block and a ``pool.shm.close``
roll-up, and counts ``pool.shm.blocks`` / ``pool.shm.bytes_shared`` /
``pool.shm.bytes_saved`` / ``pool.shm.cache_hits`` /
``pool.shm.fallbacks`` on the ambient tracer; ``repro-trace summary``
shows the roll-up line.

The worker-side caches in this module are deliberately process-local
state (each worker keeps its own attachments), which is why this module
is listed in :data:`repro.analysis.project.AUDITED_STATE_MODULES` —
the same exemption the executor cache and ambient tracer stack carry.
Block *creation* discipline is enforced by repro-lint rule R011
(``shm-lifecycle``): outside this module every ``SharedMemory``
construction must pair ``close()`` (and ``unlink()`` for owners) on all
paths.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import sys
import threading
import weakref
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Callable, Hashable, TypeVar

import numpy as np

# Imported for its side effect: parallel registers shutdown_pools with
# atexit at import time, so importing it *before* this module registers
# sweep_planes guarantees (LIFO) that blocks are unlinked while the
# executors are still draining — see sweep_planes.
import repro.experiments.parallel  # noqa: F401
from repro.telemetry.trace import Tracer, current_tracer

__all__ = [
    "DEFAULT_MIN_BYTES",
    "ArrayRef",
    "PlaneStats",
    "SharedArrayPlane",
    "clear_worker_cache",
    "rehydrate",
    "resolve",
    "shm_available",
    "sweep_planes",
    "worker_cache_stats",
]

C = TypeVar("C")

#: Arrays smaller than this are pickled inline: one shared block costs a
#: file descriptor, a page-aligned mapping and a name lookup in every
#: worker, which only pays off once the array outweighs its own pickle
#: by a comfortable margin (see docs/PERFORMANCE.md).
DEFAULT_MIN_BYTES = 1 << 15

#: Environment switch: ``REPRO_SHM=0`` disables the plane everywhere
#: (every publish falls back to inline pickling).
SHM_ENV_VAR = "REPRO_SHM"


def shm_available() -> bool:
    """Can this process create shared-memory blocks?

    False when the platform lacks ``multiprocessing.shared_memory``
    support or the :data:`SHM_ENV_VAR` kill switch is set to ``0``; the
    result of the platform probe is cached (the environment variable is
    re-read every call so tests can flip it).
    """
    if os.environ.get(SHM_ENV_VAR, "1") == "0":
        return False
    return _platform_probe()


_PROBE_RESULT: bool | None = None


def _platform_probe() -> bool:
    global _PROBE_RESULT
    if _PROBE_RESULT is None:
        try:
            from multiprocessing import shared_memory

            block = shared_memory.SharedMemory(create=True, size=1)
            block.close()
            block.unlink()
            _PROBE_RESULT = True
        except (ImportError, OSError):  # pragma: no cover - platform
            _PROBE_RESULT = False
    return _PROBE_RESULT


@dataclass(frozen=True)
class ArrayRef:
    """Picklable handle to a read-only array published in shared memory.

    ``token`` is the content hash the plane keyed the block by — it also
    keys the worker-side rehydration cache, so two refs to the same
    bytes (even from different planes) resolve to one attachment.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str
    nbytes: int
    token: str


@dataclass(frozen=True)
class PlaneStats:
    """Lifetime accounting of one :class:`SharedArrayPlane`."""

    blocks: int
    bytes_shared: int
    cache_hits: int
    fallbacks: int
    bytes_saved: int


class SharedArrayPlane:
    """Publish read-only numpy arrays once; hand out picklable handles.

    Parameters
    ----------
    min_bytes:
        Arrays below this size are returned as-is (inline pickling is
        cheaper than a block per small array).
    enabled:
        ``None`` (default) probes :func:`shm_available`; ``False`` turns
        every publish into a fallback — useful for apples-to-apples
        pickling baselines (the ``shm-plane`` benchmarks do exactly
        this).
    tracer:
        Telemetry destination; defaults to the ambient tracer.

    The plane owns every block it creates: leaving the ``with`` body (or
    calling :meth:`close`, or the module's ``atexit`` sweep) closes and
    unlinks all of them exactly once.  Publishing after close raises.
    """

    def __init__(
        self,
        *,
        min_bytes: int = DEFAULT_MIN_BYTES,
        enabled: bool | None = None,
        tracer: Tracer | None = None,
    ):
        if min_bytes < 0:
            raise ValueError("min_bytes must be nonnegative")
        self.min_bytes = int(min_bytes)
        self.enabled = shm_available() if enabled is None else bool(enabled)
        self._tracer = tracer
        #: Owned blocks by content token: (SharedMemory, handle).
        self._blocks: dict[str, tuple[Any, ArrayRef]] = {}
        self._closed = False
        self._blocks_total = 0
        self._bytes_shared_total = 0
        self._cache_hits = 0
        self._fallbacks = 0
        self._bytes_saved = 0
        _LIVE_PLANES[self] = None

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, array: np.ndarray) -> ArrayRef | np.ndarray:
        """Publish ``array`` and return its handle (or the array itself).

        The returned :class:`ArrayRef` is what the task payload should
        carry; workers turn it back into a read-only view with
        :func:`resolve`.  Publishing content already on the plane is a
        cache hit and returns the existing handle.  Arrays below
        ``min_bytes`` — and every array when the plane is disabled —
        fall back to the array itself (inline pickling), which
        :func:`resolve` passes through unchanged.
        """
        if self._closed:
            raise RuntimeError("publish() on a closed SharedArrayPlane")
        array = np.ascontiguousarray(array)
        if not self.enabled or array.nbytes < self.min_bytes:
            self._fallbacks += 1
            return array
        token = _content_token(array)
        cached = self._blocks.get(token)
        if cached is not None:
            self._cache_hits += 1
            self._bytes_saved += array.nbytes
            tracer = self._ambient()
            if tracer.enabled:
                tracer.count("pool.shm.cache_hits")
                tracer.count("pool.shm.bytes_saved", array.nbytes)
            return cached[1]
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        ref = ArrayRef(
            name=shm.name,
            shape=tuple(array.shape),
            dtype=array.dtype.str,
            nbytes=int(array.nbytes),
            token=token,
        )
        self._blocks[token] = (shm, ref)
        self._blocks_total += 1
        self._bytes_shared_total += int(array.nbytes)
        tracer = self._ambient()
        if tracer.enabled:
            tracer.emit(
                "pool.shm.publish",
                block=shm.name,
                nbytes=int(array.nbytes),
                shape=list(array.shape),
                dtype=array.dtype.str,
            )
            tracer.count("pool.shm.blocks")
            tracer.count("pool.shm.bytes_shared", array.nbytes)
        return ref

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close and unlink every owned block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        blocks = list(self._blocks.values())
        self._blocks.clear()
        stats = self.stats()
        for shm, _ in blocks:
            _destroy_block(shm)
        tracer = self._ambient()
        if tracer.enabled:
            tracer.emit(
                "pool.shm.close",
                blocks=stats.blocks,
                bytes_shared=stats.bytes_shared,
                bytes_saved=stats.bytes_saved,
                cache_hits=stats.cache_hits,
                fallbacks=stats.fallbacks,
            )

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> PlaneStats:
        """Lifetime accounting (publishes survive close)."""
        return PlaneStats(
            blocks=self._blocks_total,
            bytes_shared=self._bytes_shared_total,
            cache_hits=self._cache_hits,
            fallbacks=self._fallbacks,
            bytes_saved=self._bytes_saved,
        )

    def __enter__(self) -> "SharedArrayPlane":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _ambient(self) -> Tracer:
        return self._tracer if self._tracer is not None else current_tracer()


def _content_token(array: np.ndarray) -> str:
    """Content hash keying a published array (bytes + shape + dtype)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(array.dtype.str).encode())
    digest.update(repr(array.shape).encode())
    digest.update(array.data.cast("B"))
    return digest.hexdigest()


def _destroy_block(shm: Any) -> None:
    """Best-effort close + unlink (never raises during teardown)."""
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - defensive
        pass


#: Every live plane, swept at interpreter exit so a caller that crashed
#: between publish and close still unlinks its blocks (the satellite
#: lifecycle tests treat resource_tracker warnings as failures).
_LIVE_PLANES: "weakref.WeakKeyDictionary[SharedArrayPlane, None]" = (
    weakref.WeakKeyDictionary()
)


def sweep_planes() -> int:
    """Close every plane still open; returns how many were swept.

    Registered via ``atexit``; safe to call eagerly from tests.  Runs
    *before* :func:`repro.experiments.parallel.shutdown_pools`'s own
    atexit hook (LIFO order: this module imports parallel's atexit
    registration first), so blocks are unlinked while the executors are
    still alive — the kernel keeps mappings valid until every attached
    worker detaches.
    """
    swept = 0
    for plane in list(_LIVE_PLANES):
        if not plane.closed:
            plane.close()
            swept += 1
    return swept


atexit.register(sweep_planes)


# ----------------------------------------------------------------------
# Worker side: rehydration
# ----------------------------------------------------------------------
#: Per-process attachment cache: content token -> (SharedMemory, view).
#: Keeping the SharedMemory object referenced keeps the mapping alive
#: for as long as views circulate.  Process-local by design (see the
#: module docstring's AUDITED_STATE_MODULES note).
_WORKER_CACHE: dict[str, tuple[Any, np.ndarray]] = {}
_WORKER_CACHE_HITS = [0]
_CONSTRUCTED: dict[tuple[Hashable, ...], Any] = {}
#: Serializes :func:`_attach`'s swap of ``resource_tracker.register``.
_ATTACH_LOCK = threading.Lock()


def _attach(name: str) -> Any:
    """Attach to an existing block without tracking it in this process.

    Only the publishing process owns a block and unlinks it.  A plain
    attach on Python < 3.13 also registers the block with the attaching
    process's ``resource_tracker``.  In a pool worker forked before the
    coordinator started its tracker, that is a tracker of the worker's
    own: at exit it reports the block as leaked and fails to unlink it
    (ENOENT).  Unregistering after the attach is no cure where the
    worker shares the coordinator's tracker (spawned workers, or workers
    forked after the tracker started): the tracker keeps a set of names,
    so the worker would drop the coordinator's own registration and the
    coordinator's unlink would then fail inside the tracker (KeyError).
    So the attach skips registration, which is what ``track=False``
    spells on Python 3.13+.  The lock keeps two attaching threads from
    restoring each other's stand-in.
    """
    from multiprocessing import resource_tracker, shared_memory

    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    with _ATTACH_LOCK:
        register = resource_tracker.register
        resource_tracker.register = _no_register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register


def _no_register(name: str, rtype: str) -> None:
    """Stand-in for ``resource_tracker.register`` during :func:`_attach`."""


def resolve(handle: ArrayRef | np.ndarray) -> np.ndarray:
    """Turn a task-payload handle back into a read-only array.

    Plain arrays (the fallback path) pass through unchanged; an
    :class:`ArrayRef` attaches to its block and returns a zero-copy
    read-only view.  Attachments are cached per process and per content
    token, so every task after the first is a dictionary lookup.
    """
    if isinstance(handle, np.ndarray):
        return handle
    cached = _WORKER_CACHE.get(handle.token)
    if cached is not None:
        _WORKER_CACHE_HITS[0] += 1
        return cached[1]
    shm = _attach(handle.name)
    view: np.ndarray = np.ndarray(
        handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf
    )
    view.flags.writeable = False
    _WORKER_CACHE[handle.token] = (shm, view)
    return view


def rehydrate(
    factory: Callable[..., C],
    *handles: ArrayRef | np.ndarray,
    extra_key: tuple[Hashable, ...] = (),
) -> C:
    """Memoized worker-side construction from shared arrays.

    ``factory(*arrays)`` builds a (typically validating, copying) object
    from the resolved handles — e.g. ``DistributedSystem`` from rate
    vectors.  The result is cached per process, keyed by the factory and
    the handles' content tokens, so repeated tasks over the same blocks
    reuse one constructed object instead of re-validating per task.
    Calls involving any fallback (inline) array are not cached — plain
    arrays carry no stable content token.
    """
    if all(isinstance(handle, ArrayRef) for handle in handles):
        key: tuple[Hashable, ...] = (
            getattr(factory, "__module__", ""),
            getattr(factory, "__qualname__", repr(factory)),
            *(handle.token for handle in handles),  # type: ignore[union-attr]
            *extra_key,
        )
        cached = _CONSTRUCTED.get(key)
        if cached is not None:
            _WORKER_CACHE_HITS[0] += 1
            return cached  # type: ignore[no-any-return]
        constructed = factory(*(resolve(handle) for handle in handles))
        _CONSTRUCTED[key] = constructed
        return constructed
    return factory(*(resolve(handle) for handle in handles))


def worker_cache_stats() -> dict[str, int]:
    """Attachment/construction cache sizes and hits in *this* process."""
    return {
        "attached": len(_WORKER_CACHE),
        "constructed": len(_CONSTRUCTED),
        "hits": _WORKER_CACHE_HITS[0],
    }


def clear_worker_cache() -> None:
    """Drop this process's rehydration caches (tests / fork hygiene).

    Cached attachments are closed best-effort: a view still referenced
    elsewhere keeps its mapping alive until garbage collection, which is
    safe — blocks are unlinked by their owning plane, not here.
    """
    _CONSTRUCTED.clear()
    _WORKER_CACHE_HITS[0] = 0
    entries = list(_WORKER_CACHE.values())
    _WORKER_CACHE.clear()
    for shm, view in entries:
        del view
        try:
            shm.close()
        except (BufferError, OSError):  # pragma: no cover - live views
            pass
