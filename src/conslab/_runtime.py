"""Process-wide worker cap of the benchmark: perfbench sets and reads it.

`set_workers` validates it (>= 1) and stores it.  Nothing in conslab reads
it, nor does the CLI's `--threads` flag, validated and read by nothing,
set it: transforms run on numpy.fft, on one thread, and kernel spectra on
BLAS threads, so reports are byte-identical at every value on one machine
and BLAS thread count, not across them.
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
