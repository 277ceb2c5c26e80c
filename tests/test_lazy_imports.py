"""Building a simulator imports neither numpy nor multiprocessing.

Only the workload generators (numpy) and the process-pool backend
(multiprocessing) need them, and each imports it where it is used, so a
serving or cluster run that does not call them never pays for loading
them at start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BUILD_BOTH = """
import sys
from repro import ClusterConfig, ClusterSimulator, LLMServingSim, ServingSimConfig
replica = ServingSimConfig(model_name="gpt2", npu_num=1, npu_mem_gb=4.0)
LLMServingSim(replica)
ClusterSimulator(ClusterConfig(num_replicas=2, replica=replica))
print(sorted(name for name in ("numpy", "multiprocessing") if name in sys.modules))
"""


def test_building_simulators_imports_neither_numpy_nor_multiprocessing():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", BUILD_BOTH], env=env,
                               capture_output=True, text=True, check=True)
    assert completed.stdout.strip() == "[]"
