"""Replicated selection study over mixture data, table-style output.

A scaled-down version of the full study: 200 replications per block
instead of 1000, pure Poisson data, both penalty weights.  The text table
mirrors the study layout; the CSV line shows the machine format.  Results
are bit-reproducible for a fixed seed.  All 1200 replications are fitted
in lockstep, one minimizer call per family.
"""

from phdsel import ExperimentConfig, emit_table, run_experiment

config = ExperimentConfig(pi=1.0, sizes=(20, 50, 300), reps=200,
                          h_values=(1.0, 0.5), alpha=0.05, seed=20260809)
rows = run_experiment(config)

print(emit_table(rows, "text"))
print("CSV form of the first row:")
print("\n".join(emit_table(rows, "csv").splitlines()[:2]))
