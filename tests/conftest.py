import pytest

from starksim.config import default_config


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def ion1(config):
    return config.ion("ion1")


@pytest.fixture(scope="session")
def emitter(config):
    return config.emitter
