"""Finite-blocklength link analysis for mini-slot OFDM.

Short-packet transmission inside a handful of OFDM symbols leaves little
room for pilots, which makes the classic trade between pilot-assisted
coherent reception and differential (frequency- or time-direction)
signalling sharp enough to matter. This package computes both sides of
that trade: channel-estimation MSE and the effective SNR it implies,
mismatched information density statistics for the differential equivalent
channel, normal-approximation block error rates, and the converse/achievability
bounds that sandwich them, computed from the law of the information density
with Monte Carlo estimators as their reference. A small CLI drives
parameter sweeps, scheme selection and Doppler crossover searches from
JSON scenarios.

Each layer's __all__ is the one list of what it makes public; the package
re-exports those lists.
"""

import importlib

from . import bounds, chanest, channel, fbl, grid, modem
from .bounds import *  # noqa: F401,F403
from .chanest import *  # noqa: F401,F403
from .channel import *  # noqa: F401,F403
from .fbl import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .modem import *  # noqa: F401,F403

__version__ = "0.1.0"

# The CLI loads on first use (__getattr__ below), so that
# `python -m minislot.cli` runs a module the package import has not already
# executed.
_CLI_NAMES = (
    "ConfigError", "Recommendation", "Scenario", "doppler_crossover",
    "run_sweep", "select_scheme",
)

__all__ = [
    "__version__",
    *channel.__all__, *grid.__all__, *modem.__all__,
    *chanest.__all__, *fbl.__all__, *bounds.__all__,
    *_CLI_NAMES,
]


def __getattr__(name):
    if name == "cli" or name in _CLI_NAMES:
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
