"""Set-up probe: setup_probe.py WORKLOAD SEED TINY.

Imports the package and builds the workload's inputs, then prints one JSON
line with their digest and the speed.Sampler summary.  The parent times
launch to that line: the set-up a run pays before its first item.
"""

import json
import sys

import speed

# Sampling period; set-up lasts a few tenths of a second.
INTERVAL_S = 0.02

if __name__ == "__main__":
    sampler = speed.Sampler(INTERVAL_S)
    sampler.start()
    import inputs
    data = inputs.prepare(sys.argv[1], int(sys.argv[2]),
                          sys.argv[3] == "1")
    sampler.stop()
    print(json.dumps(dict(sampler.summary(), digest=data["digest"])),
          flush=True)
