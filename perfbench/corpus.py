"""Seeded synthetic recording corpus in the five-set layout the loader reads.

Each set directory (Z, O, N, F, S) holds 100 files named like ``O017.txt``
with 4097 integer amplitudes, one per line, as in the real corpus.  A
recording is two rhythmic sinusoids at set-specific frequencies, with
random phases, log-normal amplitudes and a small frequency jitter, plus an
AR(1) red-noise background.  The set shapes overlap (O and S share one
rhythm and their amplitudes overlap), so o_vs_s is learnable but not
separable: its linear cells score 79-97% instead of 100%.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.signal

SETS = ("Z", "O", "N", "F", "S")
PER_SET = 100
LENGTH = 4097

#: Per set: median rhythm amplitude, rhythm frequencies (cycles per
#: sample), background-to-rhythm ratio and AR pole of the background.
#: Each class concentrates near the subspace of its own rhythms, which is
#: what the twin-plane classifiers pick up; the background and the
#: frequency jitter blur those subspaces.
SET_SHAPES = {
    "Z": (40.0, (0.010, 0.021), 0.5, 0.90),
    "O": (40.0, (0.013, 0.027), 0.6, 0.90),
    "N": (60.0, (0.020, 0.036), 0.6, 0.92),
    "F": (70.0, (0.024, 0.045), 0.6, 0.92),
    "S": (90.0, (0.027, 0.060), 0.8, 0.95),
}
AMPLITUDE_SPREAD = 0.4  # log-normal spread of each rhythm's amplitude
FREQUENCY_JITTER = 0.003  # relative spread of each rhythm's frequency


def recording_samples(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """One recording's integer samples for a set's shape parameters."""
    median, frequencies, noise_ratio, pole = shape
    t = np.arange(LENGTH)
    signal = np.zeros(LENGTH)
    for frequency in frequencies:
        amplitude = median * np.exp(AMPLITUDE_SPREAD * rng.standard_normal())
        frequency *= 1.0 + FREQUENCY_JITTER * rng.standard_normal()
        phase = rng.uniform(0.0, 2.0 * np.pi)
        signal += amplitude * np.sin(2.0 * np.pi * frequency * t + phase)
    background = scipy.signal.lfilter([1.0], [1.0, -pole], rng.standard_normal(LENGTH))
    signal += noise_ratio * median * background / background.std()
    return np.rint(signal).astype(np.int64)


def write_corpus(root: Path, seed: int) -> Path:
    """Write the corpus for ``seed`` under ``root`` and return ``root``."""
    rng = np.random.default_rng(seed)
    for label in SETS:
        set_dir = root / label
        set_dir.mkdir(parents=True, exist_ok=True)
        for i in range(1, PER_SET + 1):
            samples = recording_samples(rng, SET_SHAPES[label])
            text = "\n".join(map(str, samples.tolist())) + "\n"
            (set_dir / f"{label}{i:03d}.txt").write_text(text, encoding="ascii")
    return root
