"""Header compression domain types: headers, compressor actions, the
decompressor context state machine, and the header compressibility source.

The decompressor state is a plain integer level: a chain of W "full
context" levels (0 .. W-1, 0 fresh, higher staler) followed by a "repair
context" level (W) and a "no context" level (W+1).  A packet decodes
successfully exactly when the chain lands back on level 0.  The source
state is the last `order` compressibility bits as an integer, bit k being
the bit k slots back.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class HeaderType(IntEnum):
    """Header sent with each packet, longest to shortest.

    IR carries everything needed to (re)build the decompression context.
    CO7 is compressed with a strong checksum and can repair a damaged
    context.  CO3 is fully compressed and decodes only against an intact
    context and a compressible header flow.
    """

    IR = 0
    CO7 = 1
    CO3 = 2


@dataclass(frozen=True)
class HeaderLengths:
    """Payload length and per-header lengths in bits."""

    payload_bits: int
    ir_bits: int
    co7_bits: int
    co3_bits: int

    def __post_init__(self) -> None:
        if self.payload_bits <= 0:
            raise ValueError("payload_bits must be positive")
        if not (self.ir_bits > self.co7_bits > self.co3_bits > 0):
            raise ValueError("need ir_bits > co7_bits > co3_bits > 0")

    def header_bits(self, header: HeaderType) -> int:
        return (self.ir_bits, self.co7_bits, self.co3_bits)[HeaderType(header)]


@dataclass(frozen=True)
class CompressorAction:
    """One slot's decision: which header to send, and whether to ask the
    decompressor to report its state back."""

    header: HeaderType
    request_feedback: bool

    @property
    def index(self) -> int:
        """Stable position in ACTIONS: header code * 2 + feedback flag."""
        return int(self.header) * 2 + int(self.request_feedback)


ACTIONS: tuple[CompressorAction, ...] = tuple(
    CompressorAction(h, f) for h in HeaderType for f in (False, True)
)
ACTION_COUNT = len(ACTIONS)


def decompressor_step(
    level: int,
    header: HeaderType,
    tx_ok: int,
    compressible: int,
    w: int,
) -> int:
    """Advance the context chain by one received packet; returns the new
    level.

    tx_ok is the physical-layer outcome for this packet, compressible is the
    header-flow flag the packet was compressed under.  From full context the
    decode succeeds whenever the packet arrives, unless a CO3 header meets an
    incompressible flow; an arrival failure slides the chain one level deeper
    (compressible flow) or straight to repair context (incompressible).  From
    repair context any arriving IR or CO7 re-anchors the chain; CO3 cannot.
    From no context only an arriving IR rebuilds the context.
    """
    co3 = header == HeaderType.CO3
    if level <= w - 1:
        if tx_ok and (compressible or not co3):
            return 0
        if compressible:
            return level + 1  # level w-1 lands on the repair level
        return w
    if level == w:
        return 0 if (tx_ok and not co3) else w
    return 0 if (tx_ok and header == HeaderType.IR) else w + 1


@dataclass(frozen=True)
class SourceDynamics:
    """Conditional law of the next compressibility bit given the last
    `order` bits.  p_one[i] is P(next bit = 1) after the history integer i,
    whose bit k is the bit k slots back.
    """

    order: int
    p_one: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(self.p_one) != 2 ** self.order:
            raise ValueError("p_one must have 2**order entries")
        for p in self.p_one:
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")

    @classmethod
    def first_order(cls, p_one_after_zero: float, p_zero_after_one: float) -> "SourceDynamics":
        return cls(1, (p_one_after_zero, 1.0 - p_zero_after_one))

    @classmethod
    def constant(cls, bit: int) -> "SourceDynamics":
        b = float(bit)
        return cls(1, (b, b))


def source_step(history: int, dynamics: SourceDynamics, rng) -> tuple[int, int]:
    """Sample the next compressibility bit given the last `order` bits as an
    integer (bit k = the bit k slots back), and shift it in; returns the new
    history and the bit."""
    bit = 1 if rng.random() < dynamics.p_one[history] else 0
    return ((history << 1) | bit) & ((1 << dynamics.order) - 1), bit
