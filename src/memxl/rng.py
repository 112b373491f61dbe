"""Named, seedable RNG substreams.

A run owns one master seed. Every stochastic purpose (parameter init,
dropout, skip-mask sampling, head-assignment sampling, data order) draws
from its own PCG64 substream derived from that seed, so turning one
mechanism on or off never perturbs the draws of another.
"""

from __future__ import annotations

import numpy as np

PURPOSES = ("init", "dropout", "skip", "heads", "data")


def normal(rng: np.random.Generator, std: float, shape, dtype) -> np.ndarray:
    """``rng.normal(0.0, std, shape).astype(dtype)`` bit for bit, from the
    same draws (numpy's ``normal`` is ``loc + scale * z``), but faster."""
    return (std * rng.standard_normal(shape) + 0.0).astype(dtype, copy=False)


class RngHub:
    """Master seed plus one independent generator per purpose."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams = {
            name: np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=(k,)))
            )
            for k, name in enumerate(PURPOSES)
        }

    def __getitem__(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            raise KeyError(f"unknown rng purpose {name!r}; known: {PURPOSES}")
        return self._streams[name]

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every substream."""
        return {
            "seed": self.seed,
            "streams": {name: gen.bit_generator.state for name, gen in self._streams.items()},
        }

    def load_state(self, state: dict) -> None:
        self.seed = int(state["seed"])
        for name, bg_state in state["streams"].items():
            self._streams[name].bit_generator.state = bg_state
