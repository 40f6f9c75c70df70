"""Deterministic helper for optional worker-pool fan-out."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import InvalidArgument
from .stats import _is_count

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T] | Iterable[T],
                 threads: int = 1) -> list[R]:
    """Map fn over items, preserving order; results are thread-count invariant."""
    if not _is_count(threads, 1):
        raise InvalidArgument(f"threads must be an integer >= 1, got {threads!r}")
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))
