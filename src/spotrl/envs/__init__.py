from .blockworld import BlockWorld
from .gridworld import GridWorld

__all__ = ["BlockWorld", "GridWorld"]
