"""Cross-mesh resharding communication strategies (paper §3.1)."""

from typing import Callable

from .allgather import AllGatherStrategy
from .auto import AutoStrategy
from .base import CommStrategy, LoadTracker
from .broadcast import BroadcastStrategy
from .multicast import MulticastStrategy
from .send_recv import SendRecvStrategy
from .signal import SignalStrategy

__all__ = [
    "CommStrategy",
    "LoadTracker",
    "SendRecvStrategy",
    "AllGatherStrategy",
    "BroadcastStrategy",
    "MulticastStrategy",
    "SignalStrategy",
    "AutoStrategy",
    "make_strategy",
    "STRATEGIES",
]

STRATEGIES: dict[str, Callable[[], CommStrategy]] = {
    "send_recv": SendRecvStrategy,
    "allgather": AllGatherStrategy,
    "broadcast": BroadcastStrategy,
    "multicast": MulticastStrategy,
    "signal": SignalStrategy,
    "auto": AutoStrategy,
}


def make_strategy(name: "str | CommStrategy", **kwargs) -> CommStrategy:
    """Instantiate a strategy by name (pass-through for instances)."""
    if isinstance(name, CommStrategy):
        if kwargs:
            raise ValueError("cannot pass kwargs with a strategy instance")
        return name
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; options: {sorted(STRATEGIES)}"
        ) from None
    return factory(**kwargs)
