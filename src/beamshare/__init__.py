"""Link-level simulator and optimizer for serving one secondary NOMA user
on the preconfigured zero-forcing beams of a legacy SDMA downlink.

Three access schemes are implemented and compared: single-beam selection,
coherent multi-beam aggregation with direct decoding (scheme 1), and
multi-beam aggregation with a per-beam SIC chain and jointly optimized
power split (scheme 2), together with the closed-form outage machinery and
a reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"

from .beam_aggregation import evaluate_scheme1, evaluate_scheme2
from .beam_selection import evaluate_selection
from .channel_model import SystemConfig, TrialSeed, realize
from .montecarlo import SweepSpec, estimate

__all__ = [
    "SystemConfig",
    "TrialSeed",
    "realize",
    "evaluate_selection",
    "evaluate_scheme1",
    "evaluate_scheme2",
    "SweepSpec",
    "estimate",
    "__version__",
]
