"""Train the Q-network compressor on a small observable instance.

Thirty short episodes on the one-level channel are enough to watch the
whole arc: random exploration, the value estimates separating, then the
greedy policy settling on compressed headers with occasional feedback.
Finishes with a held-out greedy episode next to the threshold baseline.
"""

import dataclasses

from bdrohc.agent import AgentConfig, AgentPolicy, EncoderSpec, run_training
from bdrohc.baselines import KtConfig, KtPolicy
from bdrohc.env import run_episode
from bdrohc.harness import compute_metrics, eval_seed_for, tiny_oracle_config

cfg = dataclasses.replace(tiny_oracle_config(), horizon=300)
agent = AgentConfig(
    learning_rate=1e-3,
    epsilon_decay=0.9,
    epsilon_floor=0.1,
    hidden_width=32,
    depth=2,
    batch_size=32,
    grad_steps=100,
    replay_capacity=20_000,
    history_extra=2,
    double_argmax=True,
)

print("episode   mean reward   efficiency   feedback   epsilon")
result = run_training(cfg, agent, 30, seed=1)
for ep in range(0, 30, 5):
    print(
        f"{ep:>7}   {result.episode_rewards[ep]:>11.4f}"
        f"   {result.episode_efficiency[ep]:>10.4f}"
        f"   {result.episode_feedback_rate[ep]:>8.4f}"
        f"   {result.episode_epsilon[ep]:>7.3f}"
    )

spec = EncoderSpec.for_env(cfg, agent)
greedy = run_episode(AgentPolicy(result.params, spec), cfg, eval_seed_for(1))
m = compute_metrics(greedy, cfg.lengths)
print(f"\ngreedy agent, held-out episode: efficiency {m.transmission_efficiency:.4f}"
      f"  feedback {m.feedback_rate:.4f}")

kt = run_episode(KtPolicy(KtConfig(w=cfg.w, feedback_prob=m.feedback_rate)), cfg, eval_seed_for(1))
km = compute_metrics(kt, cfg.lengths)
print(f"threshold at same feedback:     efficiency {km.transmission_efficiency:.4f}"
      f"  feedback {km.feedback_rate:.4f}")
