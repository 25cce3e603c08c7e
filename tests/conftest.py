import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from decon import algorithms, cli, graph, harness, linalg, problem

from oracles import half_pair


@pytest.fixture(autouse=True)
def cold_eig_cache():
    """Start every test with empty eigendecomposition and instance caches, so
    counts of Jacobi solves and builds and forced solver failures do not
    depend on test order."""
    linalg.clear_eig_cache()
    harness.clear_instance_cache()


@pytest.fixture(scope="session")
def rand10():
    """Random 10-node instance pieces shared across tests: (graph, mp)."""
    g = graph.random_connected(10, 0.5, 2)
    return g, half_pair(g)


@pytest.fixture
def step_calls(monkeypatch):
    """A list that gains one entry per `algorithms.step` call in the test."""
    calls = []
    step = algorithms.step
    monkeypatch.setattr(algorithms, "step", lambda *a: calls.append(1) or step(*a))
    return calls


@pytest.fixture
def named_error(capsys):
    """Run `cli.main(argv)`, assert exit code 1, no output and a single
    `error:` line on stderr, and return that line's message."""
    def check(argv) -> str:
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (out, err)
        return err[len("error: "):-1]
    return check


@pytest.fixture(scope="session")
def prob1():
    """m_i = 1 sensing instance (averaged objective strongly convex, locals not)."""
    return problem.generate(10, 5, 1, seed=2)


@pytest.fixture(scope="session")
def prob10():
    """m_i = 10 sensing instance (every local objective strongly convex)."""
    return problem.generate(10, 5, 10, seed=2)
