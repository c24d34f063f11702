import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from epiconv import NormSpec, QuadSpec, halfspace
from epiconv.extgrid import norm_cone


@pytest.fixture(scope="session")
def euclid():
    return NormSpec("euclidean")


@pytest.fixture(scope="session")
def halfplane():
    return halfspace(2)


@pytest.fixture(scope="session")
def unit_cone():
    return norm_cone(2, 1.0)


@pytest.fixture(scope="session")
def fine_quad():
    return QuadSpec(half_width=5.0, dx=0.05, levels=8)


@pytest.fixture(scope="session")
def mid_quad():
    return QuadSpec(half_width=5.0, dx=0.05, levels=5)


def grid_from_callable(box, resolution, fn):
    axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(box, resolution)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    from epiconv.extgrid import ExtGridFn

    return ExtGridFn(box, fn(mesh))
