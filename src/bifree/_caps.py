"""Size guards: the ground-set cap of enumeration paths and the fixed limit
on series length.

The cap keeps accidental Catalan blow-ups from hanging a session; it can be
raised through the BIFREE_CAP environment variable (read at call time).

MAX_TRUNC bounds the truncation order of every series and cumulant table.
The series kernel stores dense lists of length order+1 (a two-variable
series about order^2/2 entries) and its inversion costs O(order^3), so an
unbounded order is a memory and time hazard.  It is a constant, not a
setting.
"""

import os

from .errors import CapExceeded

DEFAULT_CAP = 14
MAX_TRUNC = 128


def ground_cap() -> int:
    raw = os.environ.get("BIFREE_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError:
        raise CapExceeded(f"BIFREE_CAP is not an integer: {raw!r}")
    return value


def check_cap(size: int, what: str) -> None:
    cap = ground_cap()
    if size > cap:
        raise CapExceeded(
            f"{what} needs ground size {size} > cap {cap} "
            f"(raise BIFREE_CAP to allow)")


def check_trunc(order: int, what: str) -> None:
    if order > MAX_TRUNC:
        raise CapExceeded(
            f"{what} truncation order {order} exceeds the fixed limit "
            f"MAX_TRUNC = {MAX_TRUNC}")
