"""Stark tuning of a cavity-coupled telecom single-photon emitter.

Pipeline: electrode voltage -> local electric field -> optical frequency
shift -> simulated photon-counting experiments (PLE scans, lifetime
decay, intensity autocorrelation) -> fitted physical parameters.
"""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """An input a load-time rule refuses; every record and check raises it where its rule is stated."""
