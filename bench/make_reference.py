"""Write bench/reference.json from the current package.

    PYTHONPATH=src python3 bench/make_reference.py

Runs each workload's fixed-seed reference probe and the full verify suites
(whose seeds are built in) and stores the numbers the gate compares. Run it
only when a change to the package's results is intended, and say in
CHANGES.md what moved and why.
"""

import json
import os
import sys
import tempfile

import gate
import workloads
from stf_spde import cli


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(__file__))) as tmp:
        for workload in workloads.WORKLOADS:
            configs = workloads.write_configs(workload, os.path.join(tmp, "configs", workload))
            out = os.path.join(tmp, workload)
            todo = workloads.reference_calls(workload, configs, out)
            if workload == "verify_probes":
                todo = workloads.calls(workload, configs, out, seed=0)
            stored = reference.setdefault(workload, {})
            for call_id, argv in todo:
                if cli.main(argv) != 0:
                    print(f"{call_id} failed", file=sys.stderr)
                    return 1
                stored[call_id.removeprefix("probe:")] = gate.extract(
                    argv[argv.index("--out") + 1]
                )
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
