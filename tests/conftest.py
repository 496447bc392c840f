import pytest

from cyclelab import get_scenario


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
