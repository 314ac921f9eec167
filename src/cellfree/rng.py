"""Counter-based random streams for reproducible parallel Monte-Carlo.

Every random draw in a campaign comes from a Philox stream derived from the
master seed plus a structured key (setup index, purpose tag, batch index).
Streams are independent of execution order, so batches of realizations can
be evaluated on any number of threads, and a batch drawn again (as the
campaign's second downlink pass does) is bit-identical to its first draw.
"""

import numpy as np

# purpose tags for stream keys
TOPOLOGY = 0
CHANNEL = 1
PILOT_NOISE = 2


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Generator identified by (seed, key).

    The same (seed, key) always yields the same stream; distinct keys yield
    statistically independent streams (SeedSequence spawn keys feeding a
    counter-based Philox generator).
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. CN(0, 1) samples: real and imaginary parts N(0, 1/2)."""
    z = rng.standard_normal(size=tuple(shape) + (2,))
    # scaled in place: numpy divides a complex array by a real scalar as a
    # multiplication by its reciprocal, so these are the bits of
    # (z0 + 1j * z1) / sqrt(2)
    z *= 1.0 / np.sqrt(2.0)
    return z.view(np.complex128)[..., 0]
