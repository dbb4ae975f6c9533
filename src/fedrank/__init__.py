"""Federated supermask learning simulator: clients train per-edge scores on
a fixed random network and exchange layer-wise rankings that the server
aggregates by reputation vote.  Includes weight-based baselines, robust
aggregators, poisoning attacks, the vote failure bound, and a bit-exact
communication-cost model.

The root exports what a run uses; every other name is imported from its
own module.
"""

__version__ = "0.1.0"

from .adversary import AttackConfig
from .nn import LayerSpec, SgdConfig
from .protocols import DatasetSpec, ExperimentConfig, run_experiment
from .ranking import LayerTally
