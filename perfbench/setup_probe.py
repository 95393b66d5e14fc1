"""One set-up sample for ``run.py``: a fresh interpreter does the set-up of
one workload (imports and inputs) and prints ``ready`` and the mean
host-speed probe time it measured meanwhile (``none`` if no probe ran).

Usage (from the root of a checkout): ``python3 perfbench/setup_probe.py
<workload> <seed>``.
"""

import sys

import host_speed
import run

if __name__ == "__main__":
    with host_speed.SpeedSampler() as sampler:
        run.program_setup(sys.argv[1], int(sys.argv[2]))
    mean_probe = sampler.mean_probe_s()
    print(f"ready {'none' if mean_probe is None else repr(mean_probe)}",
          flush=True)
