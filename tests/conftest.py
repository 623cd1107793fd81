"""Shared fixtures: a synthetic recording tree and small labeled datasets."""

from __future__ import annotations

import numpy as np
import pytest

from eigu.dataio import BONN_SETS, LabeledDataset, Recording, write_recording
from eigu.synth import cross_planes, mid_band_universum

TOY_SEGMENT = 256
TOY_PER_SET = 12

#: (classifier, grid, error) for manifest grids the classifier cannot run.
INVALID_GRIDS = (
    ("gepsvm", {"delta": [1e-4], "nu": [0.1]}, "gepsvm does not consume grid axis nu"),
    ("iugepsvm", {"delta": [1e-4], "gamma": [0.1]}, "iugepsvm grid needs a psi axis"),
    ("svm", {"delta": [1e-4]}, "unknown classifier 'svm'"),
)

# amplitude, dominant frequency, noise level per set; spread far enough
# apart that the binary tasks stay learnable at this miniature scale
SET_SHAPES = {
    "Z": (40.0, 0.013, 8.0),
    "O": (35.0, 0.017, 8.0),
    "N": (60.0, 0.032, 15.0),
    "F": (70.0, 0.045, 20.0),
    "S": (400.0, 0.09, 150.0),
}


def build_recording_tree(root, seed=7, per_set=TOY_PER_SET, length=TOY_SEGMENT + 1):
    """Write a miniature recording corpus shaped like the real one.

    One trailing extra sample per file mirrors the corpus quirk the loader
    truncates away.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    for label in BONN_SETS:
        amplitude, frequency, noise = SET_SHAPES[label]
        set_dir = root / label
        set_dir.mkdir(parents=True, exist_ok=True)
        for i in range(per_set):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            signal = amplitude * np.sin(2.0 * np.pi * frequency * t + phase)
            signal += noise * rng.standard_normal(length)
            recording = Recording(
                set_label=label, samples=np.rint(signal), source_id=f"{label}{i:03d}"
            )
            write_recording(recording, set_dir / f"{label}{i:03d}.txt")
    return root


@pytest.fixture(scope="session")
def bonn_tree(tmp_path_factory):
    """Session-wide synthetic recording tree (12 files per set, 257 samples)."""
    return build_recording_tree(tmp_path_factory.mktemp("recordings"))


@pytest.fixture()
def planes_dataset():
    """Two noisy crossing lines plus a mid-band Universum."""
    X1, X2 = cross_planes(n_per_class=40, seed=3)
    return LabeledDataset(X1=X1, X2=X2, U=mid_band_universum(n=20, seed=4))


def random_dataset(rng, n_max=10, m_max=60, p_max=20):
    """A random dense dataset with dimensions drawn inside the given caps."""
    n = int(rng.integers(2, n_max + 1))
    m1 = int(rng.integers(2, m_max + 1))
    m2 = int(rng.integers(2, m_max + 1))
    p = int(rng.integers(0, p_max + 1))
    return LabeledDataset(
        X1=rng.standard_normal((m1, n)),
        X2=rng.standard_normal((m2, n)) + 0.5,
        U=rng.standard_normal((p, n)) + 0.25,
    )
