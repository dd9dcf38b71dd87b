"""Check the two channel models against their closed-form statistics.

The two-state model should hold its stationary bad-state share, and the
fading model's in-phase component should keep unit variance with the
configured lag-1 correlation while the envelope mean matches the Rayleigh
value sqrt(pi/2).
"""

import numpy as np

from bdrohc.channels import (
    GilbertElliotConfig,
    HmmChannelConfig,
    ge_init,
    ge_stationary,
    ge_step,
    hmm_init,
    hmm_step,
    hmm_transmission,
)

STEPS = 200_000
rng = np.random.default_rng(7)

print(f"two-state channel, {STEPS} steps per setting")
for eps_b in (0.1, 0.2, 0.5):
    cfg = GilbertElliotConfig(5.0, eps_b, 0.9, 0.1)
    state = ge_init(cfg, rng)
    bad = 0
    for _ in range(STEPS):
        state = ge_step(state, cfg, rng)
        bad += 1 - state
    predicted = ge_stationary(cfg)
    print(
        f"  eps_b={eps_b}: bad-state share {bad / STEPS:.4f}"
        f"  (stationary solution {predicted:.4f})"
    )

print(f"\nfading channel, {STEPS} steps")
cfg = HmmChannelConfig(0.5, 4, 2.0, 1.0)
state = hmm_init(cfg, rng)
a_i = np.empty(STEPS)
envelopes = np.empty(STEPS)
hits = 0
for k in range(STEPS):
    state, envelope = hmm_step(state, cfg, rng)
    a_i[k] = state.inphase
    envelopes[k] = envelope
    hits += hmm_transmission(envelope, cfg, rng)

lag1 = np.corrcoef(a_i[:-1], a_i[1:])[0, 1]
print(f"  in-phase variance    {a_i.var():.4f}  (expected 1)")
print(f"  lag-1 correlation    {lag1:.4f}  (configured {cfg.correlation})")
print(f"  envelope mean        {envelopes.mean():.4f}  (Rayleigh sqrt(pi/2) = {np.sqrt(np.pi / 2):.4f})")
print(f"  delivery rate        {hits / STEPS:.4f}  (power {cfg.tx_power} pushes most slots through)")
