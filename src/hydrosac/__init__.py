"""Soft actor-critic agent for one-year weekly hydropower reservoir scheduling."""

__version__ = "0.1.0"

from .env import EnvConfig
from .sac import AgentBundle, ReplayBuffer, SacConfig
from .scenario import ArtificialConfig, Scenario, ScenarioPools
from .trainer import Checkpoint, TrainConfig, evaluate, load_checkpoint, save_checkpoint, train

__all__ = [
    "AgentBundle",
    "ArtificialConfig",
    "Checkpoint",
    "EnvConfig",
    "ReplayBuffer",
    "SacConfig",
    "Scenario",
    "ScenarioPools",
    "TrainConfig",
    "evaluate",
    "load_checkpoint",
    "save_checkpoint",
    "train",
]
