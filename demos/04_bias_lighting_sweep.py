"""Sweep the illuminance of a DC compensation light at the receiver.

Extra DC light shifts the operating point into a flatter region of the
log response: the constellation becomes more uniform, but every gap also
shrinks while the noise floor does not.  Because the slicer retrains its
per-level thresholds at every operating point, the uniformity gain never
outweighs the amplitude loss and the measured BER rises monotonically
with the bias light; the sweep quantifies that trade-off.

One `sweep_ber_vs_dcl` call runs the whole grid, one seeded cell per
(m, bias) point on a 200 000-bit payload, and the demo reports the bias
with the lowest BER for each m.

Writes out/ber_vs_dcl.csv.
"""

from pathlib import Path

from pvlc.experiments import CSV_HEADERS, DEFAULT_MODULE, sweep_ber_vs_dcl, write_csv
from pvlc.link import LinkConfig

GRID = [0.0, 100.0, 200.0, 400.0, 700.0, 1000.0, 1500.0]
M_LIST = (0.2, 0.3, 0.4)

out = Path("out")
out.mkdir(exist_ok=True)

rows = sweep_ber_vs_dcl(GRID, M_LIST, LinkConfig(tx_dc_lux=425.0, seed=4), DEFAULT_MODULE,
                        repetitions=1, payload_symbols=100_000)
for m in M_LIST:
    curve = [(dcl, ber) for row_m, dcl, ber in rows if row_m == m]
    best = min(curve, key=lambda point: point[1])[0]   # the first, i.e. smallest, on a tie
    print(f"m={m}: best bias {best:.0f} lux")
    for dcl, ber in curve:
        print(f"    dcl={dcl:6.0f} lux  ber={ber:.3e}")

write_csv(out / "ber_vs_dcl.csv", CSV_HEADERS["ber_vs_dcl"], rows)
print(f"\nwrote {out / 'ber_vs_dcl.csv'}")
