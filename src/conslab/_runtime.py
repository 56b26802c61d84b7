"""Process-wide worker count.

Its only effect is the `workers` hint passed to scipy.fft, which splits a
transform across threads without changing its arithmetic, so results stay
bitwise identical across settings.
"""

from __future__ import annotations

_workers = 1


def set_workers(n: int) -> None:
    global _workers
    if n < 1:
        raise ValueError(f"worker count must be >= 1, got {n}")
    _workers = int(n)


def get_workers() -> int:
    return _workers
