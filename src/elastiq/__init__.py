"""elastiq: train-once elastic low-rank + mixed-precision compression.

Factorize once at full rank, then serve any rank/bit-width operating point
at test time. Ships layerwise logit-drift certificates, per-layer device
price tables, and a budget-token controller that picks per-layer profiles.
"""

__version__ = "0.1.0"

from . import certificate
from . import controller
from . import cost
from . import elastic
from . import linalg
from . import manifest
from . import network
from . import quant

__all__ = ["certificate", "controller", "cost", "elastic", "linalg",
           "manifest", "network", "quant"]
