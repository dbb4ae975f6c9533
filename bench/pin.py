"""Recompute bench/golden.json, the pinned summary.csv SHA-256 of every
training workload variant, from the fedrank in this checkout:

    PYTHONPATH=src python3 bench/pin.py

Run it only when the benchmark's workloads change; a change to fedrank must
reproduce the pinned hashes, not re-pin them.
"""

import json
import os

from run import THREAD_ENV


def main() -> None:
    os.environ.update(THREAD_ENV)  # before numpy loads
    import workloads
    from fedrank import protocols

    golden = {}
    for workload in workloads.TRAINING:
        golden[workload] = []
        for variant in range(workloads.VARIANTS):
            cfg = workloads.training_config(workload, variant)
            golden[workload].append(workloads.summary_sha256(protocols.run_experiment(cfg)))
            print(workload, variant, golden[workload][-1], flush=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")


if __name__ == "__main__":
    main()
