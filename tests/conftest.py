import numpy as np
import pytest
import scipy.linalg

from cyclelab import GroupElement, get_scenario


def group_expm(x):
    """exp(x) of a general algebra element as a GroupElement, by
    scipy.linalg.expm: the package exponentiates only A0, N0 and
    anti-Hermitian elements, each in closed form."""
    return GroupElement(scipy.linalg.expm(x))


def seeded_subjects(sc, count, seed):
    """Cycle subjects (su11 points, su21 duals) well inside the cycle space."""
    rng = np.random.default_rng(seed)
    if sc.n == 2:
        w = 0.95 * np.sqrt(rng.uniform(size=count)) * np.exp(
            2j * np.pi * rng.uniform(size=count))
        return np.stack([w, np.ones_like(w)], axis=1)
    beta = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    beta *= (0.95 * np.sqrt(rng.uniform(size=count))
             / np.linalg.norm(beta, axis=1))[:, None]
    return np.concatenate([beta, np.ones((count, 1))], axis=1)


@pytest.fixture(scope="session")
def su11():
    return get_scenario("su11")


@pytest.fixture(scope="session")
def su21():
    return get_scenario("su21")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for the test and returns
    a list that grows by one entry per call."""

    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install
