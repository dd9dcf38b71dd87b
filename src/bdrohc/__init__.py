"""Bi-directional robust header compression: simulator, learned compressor,
baselines, and experiment harness."""

from .core import (
    ACTIONS,
    ACTION_COUNT,
    CompressorAction,
    HeaderLengths,
    HeaderType,
    SourceDynamics,
    decompressor_step,
    source_step,
)
from .channels import (
    GilbertElliotConfig,
    HmmChannelConfig,
    HmmState,
    ObsNoiseConfig,
    ge_init,
    ge_stationary,
    ge_step,
    ge_transmission,
    hmm_init,
    hmm_step,
    hmm_trajectory,
    hmm_transmission,
    observe_channel_ge,
    observe_channel_hmm,
    observe_transmission,
)
from .env import (
    BatchGeEnv,
    EnvConfig,
    MetricsReport,
    Observation,
    Policy,
    RohcEnv,
    StepOutcome,
    Trace,
    as_seed_sequence,
    compute_metrics,
    rollout,
    run_episode,
)
from .mlp import (
    MlpConfig,
    MlpParams,
    batch_td_loss_grad,
    forward,
    forward_batch,
    init_params,
    load_params,
    save_params,
    sgd_step,
)
from .agent import (
    AgentConfig,
    AgentPolicy,
    EncoderSpec,
    HistoryWindow,
    ReplayMemory,
    TrainingResult,
    load_checkpoint,
    run_training,
    save_checkpoint,
    train_step,
)
from .baselines import (
    FixedPolicy,
    KtConfig,
    KtPolicy,
    OracleResult,
    RandomPolicy,
    exact_oracle,
    mc_discounted_value,
    rollout_returns,
)
from .harness import (
    PRESETS,
    default_config,
    load_config,
    make_agent_config,
    make_env_config,
    make_kt_config,
    parse_config,
    run_experiment,
    adapt_experiment,
    evaluate_policy,
)

__version__ = "0.1.0"
