"""Process-wide worker count, the value of the CLI's `--threads` flag.

`set_workers` validates it (>= 1) and stores it.  No computation reads it:
the transforms run on numpy.fft, on one thread, and kernel spectra on the
BLAS threads, which it does not set; so reports are byte-identical at every
value on one machine and BLAS thread count, not across them.
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
