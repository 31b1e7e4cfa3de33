"""Write the reference rows the sweep workloads are checked against at seed 1.

Run from the root of a checkout, only when a change is meant to alter BER
results:

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs the full default families (140 and 50 cells) on 2 workers.
"""

from pathlib import Path

from pvlc import experiments
from pvlc.link import LinkConfig

from workload import DEFAULT_SEED, GAIN_CAP, JOBS, LPF_CUTOFF_HZ, REFERENCE_DIR


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    spec = experiments.DEFAULT_MODULE
    rows = experiments.sweep_ber_vs_m(experiments.M_GRID, experiments.BER_VS_M_ILLUMINANCES,
                                      LinkConfig(seed=DEFAULT_SEED), spec, n_jobs=JOBS)
    experiments.write_csv(REFERENCE_DIR / f"ber_vs_m_seed{DEFAULT_SEED}.csv",
                          experiments.CSV_HEADERS["ber_vs_m"], rows)
    base = LinkConfig(seed=DEFAULT_SEED, tx_dc_lux=experiments.POSTDIST_TX_LUX, lpf_cutoff_hz=LPF_CUTOFF_HZ)
    rows = experiments.sweep_postdistortion(experiments.POSTDIST_M_GRID, base, spec, GAIN_CAP, n_jobs=JOBS)
    experiments.write_csv(REFERENCE_DIR / f"postdist_lpf_seed{DEFAULT_SEED}.csv",
                          experiments.CSV_HEADERS["postdist"], rows)
    for path in sorted(Path(REFERENCE_DIR).glob("*.csv")):
        print(path.read_text(encoding="utf-8"))


if __name__ == "__main__":
    main()
