"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload>

Prints {"import_s": ..., "catalog_s": ..., "factor": ...}: the seconds to
import every semigraded module, then to build and validate the workload's
catalog algebras, and the clock factor (clock.py) sampled meanwhile.
"""

import json
import sys

from clock import SpeedProbe
from workloads import WORKLOADS, setup

if __name__ == "__main__":
    with SpeedProbe() as probe:
        _, import_s, catalog_s = setup(WORKLOADS[sys.argv[1]])
    print(json.dumps({"import_s": import_s, "catalog_s": catalog_s, "factor": probe.factor()}))
