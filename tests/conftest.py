from unittest import mock

import numpy as np
import pytest

from qmht import tensorlab
from qmht.linalg import DensityMatrix

ROUTES = {"_type_class_scores": "classes", "_pure_scores": "pure", "block_scores": "blocks"}


def pure(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def diagonal(probs) -> DensityMatrix:
    return DensityMatrix(np.diag(np.asarray(probs, dtype=float)).astype(complex))


def route(states, kind="gs"):
    """The route that ``run_power_experiment`` scores ``kind`` on for
    ``states`` at n = 1: "classes", "pure" or "blocks"."""
    taken = {}

    def spy(name):
        scores = getattr(tensorlab, name)

        def recorded(*args):
            taken.update(dict.fromkeys(args[-2], ROUTES[name]))
            return scores(*args)

        return mock.patch.object(tensorlab, name, recorded)

    with spy("_type_class_scores"), spy("_pure_scores"), spy("block_scores"):
        tensorlab.run_power_experiment(states, [1], kind)
    return taken[kind]


@pytest.fixture
def zero_state():
    return pure([1.0, 0.0])


@pytest.fixture
def one_state():
    return pure([0.0, 1.0])


@pytest.fixture
def plus_state():
    return pure([1.0, 1.0])
