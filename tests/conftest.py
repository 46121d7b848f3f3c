import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracle_utils importable

from unembed import example, save_model
from unembed.examples import example_names


@pytest.fixture
def unrestricted():
    return example("unrestricted")


@pytest.fixture
def centered():
    return example("centered")


@pytest.fixture
def centered_unit():
    return example("centered_unit")


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory) -> Path:
    """Every bundled example as CSV and JSON, written from examples.py, the
    one source of the fixtures."""
    path = tmp_path_factory.mktemp("data")
    for name in example_names():
        for ext in ("csv", "json"):
            save_model(example(name).model, str(path / f"{name}.{ext}"))
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
