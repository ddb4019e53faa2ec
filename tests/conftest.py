import numpy as np
import pytest

from starksim.config import default_config
from starksim.experiment import G2Histogram, emission_window_probability


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def ion1(config):
    return config.ion("ion1")


@pytest.fixture(scope="session")
def emitter(config):
    return config.emitter


def _lag_coincidences(arm_a, arm_b, max_lag):
    """``C(k) = sum_i a_i b_(i+k)`` for ``|k| <= max_lag``, in exact int64 arithmetic."""
    n = arm_a.size
    lags = np.arange(-max_lag, max_lag + 1)
    sums = [int(np.sum(arm_a[max(-k, 0): n - max(k, 0)] * arm_b[max(k, 0): n - max(-k, 0)])) for k in lags.tolist()]
    return G2Histogram(lags=lags, coincidences=np.array(sums, dtype=np.int64))


@pytest.fixture(scope="session")
def poissonian_g2():
    """Sampler of the classical control: a coherent source of the emitter's
    mean rate ``p`` plus the background ``m``, split 50/50, so the arms are
    independent Poisson((p + m)/2) per pulse and g2(0) is 1."""

    def sample(emitter, background_fraction, protocol, n_pulses, max_lag, seed):
        p_signal = emitter.saturation_excitation_prob * emission_window_probability(
            emitter.lifetime_us, protocol.window_delay_us, protocol.window_length_us
        )
        mean = p_signal / (1.0 - background_fraction)  # p + m
        rng = np.random.default_rng(seed)
        arm_a, arm_b = rng.poisson(mean / 2.0, (2, n_pulses)).astype(np.int64)
        return _lag_coincidences(arm_a, arm_b, max_lag)

    return sample
