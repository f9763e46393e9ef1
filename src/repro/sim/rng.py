"""Named, reproducibly-seeded random streams.

Simulations in this library never touch the global NumPy RNG.  Every
stochastic component asks a :class:`RngRegistry` for a *named* stream;
streams are derived deterministically from a root seed and the name, so

* the same experiment with the same seed replays bit-for-bit,
* adding a new stochastic component does not perturb existing streams
  (unlike sequential draws from one generator), and
* parallel replicas ("circle groups") get independent streams.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses BLAKE2b over the pair so that nearby root seeds produce unrelated
    child seeds (important when sweeping seed = 0, 1, 2, ...).
    """
    digest = hashlib.blake2b(
        f"{root_seed}:{name}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class RngRegistry:
    """Factory of named :class:`numpy.random.Generator` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name``.

        Every call starts the stream from its initial state, so what a
        component draws never depends on what was drawn before it.
        """
        return np.random.default_rng(derive_seed(self.root_seed, name))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngRegistry(root_seed={self.root_seed})"
