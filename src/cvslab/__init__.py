"""Tabular RL lab: criticality-driven multi-step updates and baselines."""

from .agents import (
    ALGORITHM_NAMES,
    EpisodeLog,
    cvs_episode,
    mc_episode,
    n_step_sarsa_episode,
    q_learning_episode,
    watkins_qlambda_episode,
)
from .core import (
    AgentParams,
    ConfigError,
    Environment,
    QTable,
    epsilon_greedy,
    greedy_actions,
)
from .harness import (
    ExperimentConfig,
    RunResult,
    average_over_runs,
    episodes_to_convergence,
    episodes_to_threshold,
    greedy_policy_return,
    make_env,
    run_experiment,
    running_average,
)
from .roadtree import (
    BUILTIN_TREES,
    RoadTreeEnv,
    TreeEdge,
    TreeNode,
    TreeSpec,
    fig1_tree,
    fig3_tree,
    fig4_tree,
    fig6_tree,
    optimal_return_oracle,
)
from .shooter import ShooterEnv
from .tennis import TennisEnv

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "AgentParams",
    "BUILTIN_TREES",
    "ConfigError",
    "Environment",
    "EpisodeLog",
    "ExperimentConfig",
    "QTable",
    "RoadTreeEnv",
    "RunResult",
    "ShooterEnv",
    "TennisEnv",
    "TreeEdge",
    "TreeNode",
    "TreeSpec",
    "average_over_runs",
    "cvs_episode",
    "episodes_to_convergence",
    "episodes_to_threshold",
    "epsilon_greedy",
    "fig1_tree",
    "fig3_tree",
    "fig4_tree",
    "fig6_tree",
    "greedy_actions",
    "greedy_policy_return",
    "make_env",
    "mc_episode",
    "n_step_sarsa_episode",
    "optimal_return_oracle",
    "q_learning_episode",
    "run_experiment",
    "running_average",
    "watkins_qlambda_episode",
]
