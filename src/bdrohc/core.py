"""Header compression domain types: headers, compressor actions, the
decompressor context state machine, and the header compressibility source.

The decompressor is a chain of W "full context" levels (0 .. W-1) followed by
a "repair context" level (W) and a "no context" level (W+1).  A packet decodes
successfully exactly when the chain lands back on level 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

TABLE_SUM_TOL = 1e-12


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


@dataclass(frozen=True)
class DecompressorState:
    """Context level of the decompressor.

    value in 0..w-1: full context (0 is fresh, higher is staler).
    value == w:      repair context.
    value == w+1:    no context.
    """

    value: int
    w: int

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("w must be >= 1")
        if not 0 <= self.value <= self.w + 1:
            raise ValueError(f"state value {self.value} outside 0..{self.w + 1}")

    @property
    def is_full_context(self) -> bool:
        return self.value <= self.w - 1

    @property
    def is_repair_context(self) -> bool:
        return self.value == self.w

    @property
    def is_no_context(self) -> bool:
        return self.value == self.w + 1

    @classmethod
    def no_context(cls, w: int) -> "DecompressorState":
        return cls(w + 1, w)


def decompressor_step(
    current: DecompressorState,
    header: HeaderType,
    tx_ok: int,
    compressible: int,
) -> DecompressorState:
    """Advance the context chain by one received packet.

    tx_ok is the physical-layer outcome for this packet, compressible is the
    header-flow flag the packet was compressed under.  From full context the
    decode succeeds whenever the packet arrives, unless a CO3 header meets an
    incompressible flow; an arrival failure slides the chain one level deeper
    (compressible flow) or straight to repair context (incompressible).  From
    repair context any arriving IR or CO7 re-anchors the chain; CO3 cannot.
    From no context only an arriving IR rebuilds the context.
    """
    w = current.w
    v = current.value
    co3 = header == HeaderType.CO3
    if v <= w - 1:
        if tx_ok and (compressible or not co3):
            nxt = 0
        elif compressible:
            nxt = v + 1  # v == w-1 lands on the repair level
        else:
            nxt = w
    elif v == w:
        nxt = 0 if (tx_ok and not co3) else w
    else:
        nxt = 0 if (tx_ok and header == HeaderType.IR) else w + 1
    return DecompressorState(nxt, w)


def is_decode_success(next_state: DecompressorState) -> bool:
    """A packet decoded exactly when the chain came back to level 0."""
    return next_state.value == 0


@dataclass(frozen=True)
class SourceDynamics:
    """Conditional law of the next compressibility bit given the last
    `order` bits.  p_one[i] is P(next bit = 1) for the history whose bits,
    most recent first, spell the integer i (bit k of i = history entry k).
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

    @classmethod
    def from_table(cls, order: int, table) -> "SourceDynamics":
        """Build from a full (2**order, 2) conditional table whose rows are
        [P(next=0 | history), P(next=1 | history)]."""
        rows = [tuple(float(x) for x in row) for row in table]
        if len(rows) != 2 ** order:
            raise ValueError("table must have 2**order rows")
        for row in rows:
            if len(row) != 2:
                raise ValueError("table rows must have 2 entries")
            if abs(row[0] + row[1] - 1.0) > TABLE_SUM_TOL:
                raise ValueError("table rows must sum to 1")
        return cls(order, tuple(row[1] for row in rows))


@dataclass(frozen=True)
class SourceState:
    """Sliding window of the last `order` compressibility bits, most recent
    first, plus the dynamics that extend it."""

    window: tuple[int, ...]
    dynamics: SourceDynamics

    def __post_init__(self) -> None:
        if len(self.window) != self.dynamics.order:
            raise ValueError("window length must equal dynamics order")
        for b in self.window:
            if b not in (0, 1):
                raise ValueError("window entries must be 0 or 1")


def source_step(state: SourceState, rng) -> tuple[SourceState, int]:
    """Sample the next compressibility bit and shift the window."""
    idx = 0
    for k, bit in enumerate(state.window):
        idx |= bit << k
    bit = 1 if rng.random() < state.dynamics.p_one[idx] else 0
    return SourceState((bit,) + state.window[:-1], state.dynamics), bit
