"""Walk the decompressor state machine through the scenarios that matter.

The receiver tracks header context as a chain of W full-context levels, a
repair level, and a no-context level.  This script narrates four short
journeys: establishing context from scratch, sliding down the full-context
levels under transmission failures, getting stuck by over-compression, and
recovering via the repair level.
"""

from bdrohc.core import HeaderType, decompressor_step

W = 5


def narrate(title, start, steps):
    print(f"\n{title}")
    level = start
    print(f"  start: {describe(level)}")
    for header, tx_ok, compressible in steps:
        level = decompressor_step(level, header, tx_ok, compressible, W)
        outcome = "decoded" if level == 0 else "lost"
        print(
            f"  send {header.name:3s} tx={'ok ' if tx_ok else 'drop'} "
            f"compressible={compressible} -> {describe(level)} ({outcome})"
        )
    return level


def describe(level):
    if level <= W - 1:
        return f"full context, level {level}"
    if level == W:
        return "repair context"
    return "no context"


print(f"W = {W}: states 0..{W-1} full context, {W} repair, {W+1} no context")

narrate(
    "Cold start: only a full header can establish context",
    W + 1,
    [
        (HeaderType.CO3, True, 1),   # minimal header is useless without context
        (HeaderType.CO7, True, 1),   # so is the mid-size one
        (HeaderType.IR, False, 1),   # full header lost in transit
        (HeaderType.IR, True, 1),    # finally lands
        (HeaderType.CO3, True, 1),   # now the 1-bit header decodes fine
    ],
)

narrate(
    "Failure climb: each drop burns one full-context level",
    0,
    [
        (HeaderType.CO3, False, 1),
        (HeaderType.CO3, False, 1),
        (HeaderType.CO3, False, 1),
        (HeaderType.CO3, True, 1),   # a single success resets to level 0
    ],
)

narrate(
    "Over-compression: an incompressible packet under a minimal header",
    0,
    [
        (HeaderType.CO3, True, 0),   # delivered but undecodable -> repair
        (HeaderType.CO3, True, 1),   # minimal header cannot repair
        (HeaderType.CO7, True, 1),   # the 7-bit-CRC header can
        (HeaderType.CO3, True, 1),
    ],
)

level = narrate(
    "Climbing all the way down ends in repair, not no-context",
    W - 2,
    [
        (HeaderType.CO3, False, 1),
        (HeaderType.CO3, False, 1),
        (HeaderType.CO7, True, 1),
    ],
)
assert level == 0
print("\nno-context is entered only at reset; losses alone never return there")
