"""Run a 1 Mbit/s PAM4 link and inspect the nonlinear level compression.

At low DC illuminance the logarithmic response squeezes the upper PAM4
levels together: the top eye is visibly smaller than the bottom one.
Raising the DC level (same absolute signal swing) makes the four openings
nearly uniform.  The slicer trains per-level centroids, so noiseless
transmission is error-free either way; errors appear only once noise
meets the compressed gaps.

Writes out/eye_250lux.csv and out/eye_1250lux.csv.
"""

from pathlib import Path

import numpy as np

from pvlc.experiments import DEFAULT_MODULE, export_eye, write_eye_csv
from pvlc.link import LinkConfig, run_link, simulate
from pvlc.seeding import payload_bits

out = Path("out")
out.mkdir(exist_ok=True)

for tx_dc, m, tag in [(250.0, 0.3, "250lux"), (1250.0, 0.3 * 250.0 / 1250.0, "1250lux")]:
    config = LinkConfig(tx_dc_lux=tx_dc, mod_index=m, thermal_sigma_v=0.0,
                        noise_bandwidth_hz=0.0, seed=42)
    (trace,) = simulate(config, DEFAULT_MODULE, payload_bits(2 * 512, config.seed), waveform=True)
    gaps = np.diff(trace.centroids)
    print(f"tx_dc={tx_dc:.0f} lux (swing {m * tx_dc:.0f} lux): "
          f"eye openings {gaps[0] * 1e3:.2f} / {gaps[1] * 1e3:.2f} / {gaps[2] * 1e3:.2f} mV, "
          f"top/bottom = {gaps[2] / gaps[0]:.3f}")
    sps = config.samples_per_symbol
    eye = export_eye(trace.v[config.training_symbols * sps:], sps, 64)
    write_eye_csv(eye, out / f"eye_{tag}.csv")

print("\nwith the committed noise defaults:")
for tx_dc in (200.0, 425.0, 650.0):
    config = LinkConfig(tx_dc_lux=tx_dc, mod_index=0.3, seed=1)
    report = run_link(config, DEFAULT_MODULE, payload_bits(200_000, 1))
    print(f"  tx_dc={tx_dc:.0f} lux: BER = {report.ber:.2e} "
          f"({'passes' if report.pass_fec else 'fails'} the 2e-2 FEC threshold)")
