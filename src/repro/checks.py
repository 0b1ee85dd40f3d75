"""Single-value input rules: the one check for every count, rate and duration.

Every constructor that takes a number from outside (a cluster's host
count, a link's bandwidth, a fault window's start, a service's rate)
calls one of the three rules here.  Each raises ``ValueError`` naming
the parameter and the bad value, so a float host count, a NaN bandwidth
or a string rate fails where it enters, never later as a bare
``TypeError`` or ``ZeroDivisionError``, and is never accepted silently.

* :func:`integer` — an integer (any :class:`numbers.Integral`, numpy
  ints included, never ``bool``) of at least a minimum;
* :func:`real` — a real number (never ``bool`` or ``str``) in an
  interval written the usual way, e.g. ``"[0, 1)"``.  NaN never passes,
  and an infinite end passes only where the interval closes on it
  (``"(0, inf]"``);
* :func:`host` — a host id: an integer >= 0, below ``n_hosts`` if given.

Rules that relate two fields (``rows x cols == n_hosts``, divisibility)
stay in their class.  The rules are on per-request paths, so a plain
``int`` or ``float`` is checked without the :mod:`numbers` ABCs.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Optional

__all__ = ["integer", "real", "host"]


def integer(name: str, value: Any, minimum: float) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer >= ``minimum``.

    ``minimum=-math.inf`` admits any integer (a seed, a tensor dimension
    whose sign a later check judges).
    """
    if (
        type(value) is int
        or (not isinstance(value, bool) and isinstance(value, numbers.Integral))
    ) and value >= minimum:
        return
    if minimum == -math.inf:
        raise ValueError(f"{name} takes only integers, got {value!r}")
    raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


#: interval text -> (low, high, low is open, high is open)
_INTERVALS: dict[str, tuple[float, float, bool, bool]] = {}


def _interval(text: str) -> tuple[float, float, bool, bool]:
    low, high = (float(end) for end in text[1:-1].split(","))
    bounds = _INTERVALS[text] = (low, high, text[0] == "(", text[-1] == ")")
    return bounds


def real(name: str, value: Any, interval: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a real number in ``interval``.

    ``interval`` is ``"[low, high]"`` with either bracket made round to
    open that end; ``inf`` and ``-inf`` are valid ends.
    """
    try:
        low, high, low_open, high_open = _INTERVALS[interval]
    except KeyError:
        low, high, low_open, high_open = _interval(interval)
    kind = type(value)
    if (
        (kind is float or kind is int or (kind is not bool and isinstance(value, numbers.Real)))
        and (low < value if low_open else low <= value)
        and (value < high if high_open else value <= high)
    ):
        return
    raise ValueError(f"{name} must be {_describe(interval)}, got {value!r}")


def _describe(interval: str) -> str:
    """``"(0, inf)"`` -> ``"finite and positive"``; ``"[0, 1)"`` -> ``"in [0, 1)"``."""
    low, high, low_open, high_open = _INTERVALS[interval]
    if high != math.inf:
        return f"in {interval}"
    finite = "finite" if high_open else ""
    if low == -math.inf:
        return finite or "a number"
    if low == 0:
        sign = "positive" if low_open else "non-negative"
    else:
        sign = f"{'>' if low_open else '>='} {low:g}"
    return f"{finite} and {sign}" if finite else sign


def host(name: str, value: Any, n_hosts: Optional[int] = None) -> None:
    """Raise ``ValueError`` unless ``value`` is a host id: an integer >= 0,
    and below ``n_hosts`` when that is given."""
    integer(name, value, 0)
    if n_hosts is not None and value >= n_hosts:
        raise ValueError(
            f"{name} references unknown host {value} (valid: 0..{n_hosts - 1})"
        )
