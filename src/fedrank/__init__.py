"""Federated supermask learning simulator: clients train per-edge scores on
a fixed random network and exchange layer-wise rankings that the server
aggregates by reputation vote.  Includes weight-based baselines, robust
aggregators, poisoning attacks, the vote failure bound, and a bit-exact
communication-cost model.
"""

__version__ = "0.1.0"

from .adversary import AttackConfig, AttackKind, OmegaKind
from .aggregation import average, multi_krum, sign_majority, trimmed_mean
from .analytics import ARCH_PRESETS, CostReport, comm_cost, failure_upper_bound
from .data import ClientShards, Dataset, dirichlet_partition, gen_blobs, load_idx
from .nn import (LayerSpec, Minibatch, SgdConfig, Supernetwork, edge_popup_train,
                 ep_backward, ep_forward, evaluate, mask_layer)
from .protocols import (Aggregator, Algorithm, ExperimentConfig, RoundRecord,
                        ServerState, run_experiment)
from .ranking import (SparseLayerRanking, argsort_ranking, reorder_scores,
                      reverse_ranking, sparse_vote, vote)
from .rng import InitKind, RngStream, derive, init_scores, init_weights
