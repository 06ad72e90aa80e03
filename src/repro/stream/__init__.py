"""The validation-stream substrate: the paper's measurement apparatus.

A simulated rippled server relays consensus validations to subscribers; a
collector records them over configurable windows; period specs reproduce
the three two-week validator populations of Section IV.
"""

from repro.stream.collector import StreamCollector
from repro.stream.events import StreamEvent
from repro.stream.periods import (
    DEFAULT_SCALE,
    PERIODS,
    PERSISTENT_ACTIVE,
    RIPPLE_LABS,
    ROUNDS_PER_TWO_WEEKS,
    PeriodSpec,
    period,
    rounds_for_scale,
)
from repro.stream.server import StreamServer

__all__ = [
    "DEFAULT_SCALE",
    "PERIODS",
    "PERSISTENT_ACTIVE",
    "PeriodSpec",
    "RIPPLE_LABS",
    "ROUNDS_PER_TWO_WEEKS",
    "StreamCollector",
    "StreamEvent",
    "StreamServer",
    "period",
    "rounds_for_scale",
]
