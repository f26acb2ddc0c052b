"""Record the gate's reference values into bench/golden.json.

Run from the repository root at the commit whose answers are the
reference:

    python3 bench/record_golden.py

It records, for the canonical inputs of each workload, the study rows,
the ``phdsel select`` output and the equidistance weight at h = 0.5.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import phdsel as ph  # noqa: E402
import phdsel.cli as ph_cli  # noqa: E402

import gate  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> None:
    golden = {}
    for name, shape in wl.STUDIES.items():
        cfg = shape.canonical(ph)
        golden[name] = {"seed": cfg.seed, "reps": cfg.reps,
                        "rows": [gate.row_dict(r) for r in ph.run_experiment(cfg)]}
    data = np.random.default_rng(wl.CLI_CANONICAL_SEED).poisson(4.0, wl.CLI_N)
    with tempfile.TemporaryDirectory() as tmp:
        path = wl.write_data(os.path.join(tmp, "canonical.txt"), data)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ph_cli.main(["select", "--data", path, "--model1", "poisson",
                         "--model2", "geometric", "--h", "0.5"])
    golden["cli"] = {"seed": wl.CLI_CANONICAL_SEED, "select": gate.parse_kv(out.getvalue())}
    part = ph.default_partition()
    golden["pi_star"] = ph.equidistance_pi(ph.poisson_model(part), ph.geometric_model(part),
                                           part, 0.5).pi_star
    with open(gate.golden_path(), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
