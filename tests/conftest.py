import os

# Pin BLAS and OpenMP to one thread before numpy is first imported: with
# OpenBLAS's default pool, a busy second CPU stretches the timed
# acceptance criteria several-fold, and thread counts change rounding.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

from retroselect.chem import parse_smiles  # noqa: E402
from retroselect.encoder import ModelDims, init_params  # noqa: E402

from helpers import CORPUS_SMILES  # noqa: E402


@pytest.fixture(scope="session")
def corpus_molecules():
    return [parse_smiles(s) for s in CORPUS_SMILES]


@pytest.fixture(scope="session")
def tiny_params():
    """Small float32 model shared by read-only tests."""
    return init_params(11, ModelDims(d=16, n_layers=2, n_types=3))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
