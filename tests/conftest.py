import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from decon import graph, mixing, problem


@pytest.fixture(scope="session")
def rand10():
    """Random 10-node instance pieces shared across tests: (graph, mp)."""
    g = graph.random_connected(10, 0.5, 2)
    w = mixing.metropolis(g)
    wt = mixing.SymMatrix((np.eye(10) + w.a) / 2.0, name="w_tilde")
    mp = mixing.validate(w, wt, g)
    return g, mp


@pytest.fixture(scope="session")
def prob1():
    """m_i = 1 sensing instance (averaged objective strongly convex, locals not)."""
    return problem.generate(10, 5, 1, seed=2)


@pytest.fixture(scope="session")
def prob10():
    """m_i = 10 sensing instance (every local objective strongly convex)."""
    return problem.generate(10, 5, 10, seed=2)
