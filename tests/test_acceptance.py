"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a ``[PASS]/[FAIL] criterion N`` line (visible with
``pytest -s`` or in the captured output of failures) and the whole set is
mirrored to ``acceptance_report.txt`` in the working directory.

Criteria 7, 8 and 9 assert BER-curve shapes that the trained-threshold
receiver implemented in pvlc.link provably cannot produce: a slicer whose
thresholds sit midway between per-level training centroids is insensitive
to any static monotone distortion beyond its effect on gap sizes, and the
gap/noise ratios those criteria probe all move monotonically (see README,
"Behaviour of the trained receiver").  The three tests are implemented as
stated and left failing; each prints the measured curve so the behaviour
is auditable.
"""

import math
import time

import numpy as np
import pytest

from pvlc.calibration import ResponseSample, fit_response
from pvlc.device import (
    CellElectrical,
    K_B,
    ModuleSpec,
    PVCellParams,
    Q_E,
    first_derivative,
    inverse_voltage,
    module_voltage,
    second_derivative,
    short_circuit_current,
)
from pvlc.experiments import (
    BER_VS_M_ILLUMINANCES,
    DCL_M_LIST,
    DEFAULT_MODULE,
    M_GRID,
    POSTDIST_M_GRID,
    POSTDIST_TX_LUX,
    ber_point_config,
    sweep_ber_vs_dcl,
    sweep_ber_vs_m,
    sweep_postdistortion,
    write_csv,
)
from pvlc.link import (
    LEVELS,
    LinkConfig,
    ac_couple,
    channel,
    receive,
    run_link,
    symbol_statistics,
    train_slicer,
    training_sequence,
    tx_waveform,
)
from pvlc.seeding import payload_bits

PARAMS = PVCellParams(n=1.5, i0=1e-10, eta=2e-9, temperature=300.0)
MODULE = ModuleSpec(cell_count=1, params=PARAMS)
BASE_SEED = 20240809
N_JOBS = 2

_RESULTS = []


def record(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    _RESULTS.append(line)
    return ok


@pytest.fixture(scope="module", autouse=True)
def write_report():
    yield
    with open("acceptance_report.txt", "w", encoding="utf-8") as handle:
        handle.write("\n".join(_RESULTS) + "\n")


def noiseless_centroids(tx_dc, mod_index):
    config = LinkConfig(tx_dc_lux=tx_dc, mod_index=mod_index, thermal_sigma_v=0.0,
                        noise_bandwidth_hz=0.0, seed=0)
    train = training_sequence(config)
    rng = np.random.default_rng(0)
    v = receive(channel(tx_waveform(LEVELS[train], config), config), MODULE, config, rng)
    stats = symbol_statistics(ac_couple(v), config.samples_per_symbol)
    centroids, _ = train_slicer(stats, train)
    return centroids


def test_criterion_01_model_exactness():
    lux = np.logspace(0.0, np.log10(2000.0), 1000)
    start = time.perf_counter()
    back = inverse_voltage(module_voltage(lux, MODULE), MODULE)
    elapsed = time.perf_counter() - start
    worst = float(np.max(np.abs(back - lux) / lux))
    ok = worst <= 1e-9 and elapsed < 1.0
    assert record(1, ok, f"round-trip max rel err {worst:.2e} in {elapsed * 1e3:.1f} ms")


def test_criterion_02_derivative_correctness():
    grid = np.logspace(np.log10(10.0), np.log10(2000.0), 300)
    h = grid * 1e-3
    fd1 = (module_voltage(grid + h, MODULE) - module_voltage(grid - h, MODULE)) / (2 * h)
    fd2 = (module_voltage(grid + h, MODULE) - 2 * module_voltage(grid, MODULE)
           + module_voltage(grid - h, MODULE)) / h**2
    err1 = float(np.max(np.abs(fd1 / first_derivative(grid, MODULE) - 1.0)))
    err2 = float(np.max(np.abs(fd2 / second_derivative(grid, MODULE) - 1.0)))
    r1 = first_derivative(2000.0, MODULE, "exact") / first_derivative(2000.0, MODULE, "asymptotic")
    r2 = second_derivative(2000.0, MODULE, "exact") / second_derivative(2000.0, MODULE, "asymptotic")
    ok = err1 <= 1e-6 and err2 <= 1e-5 and abs(r1 - 1.0) <= 1e-3 and abs(r2 - 1.0) <= 1e-3
    assert record(2, ok, f"FD rel err dv {err1:.2e}, d2v {err2:.2e}; "
                         f"asymptotic ratios {r1:.6f}, {r2:.6f} at 2000 lux")


def test_criterion_03_n_scaling():
    lux = np.linspace(0.0, 2000.0, 201)
    base = module_voltage(lux, ModuleSpec(cell_count=1, params=PARAMS))
    exact = all(
        np.array_equal(module_voltage(lux, ModuleSpec(cell_count=n, params=PARAMS)), n * base)
        for n in range(1, 17)
    )
    assert record(3, exact, "module voltage bit-exactly proportional to cell count 1..16")


def test_criterion_04_short_circuit_corollary():
    rng = np.random.default_rng(4)
    uniform_ok = True
    for _ in range(1000):
        count = int(rng.integers(1, 12))
        i_ph = float(rng.uniform(1e-9, 1e-1))
        cells = [CellElectrical(i_ph, float(rng.uniform(1e-2, 1e6)))] * count
        uniform_ok &= short_circuit_current(cells) == i_ph
    bounded_ok = True
    for _ in range(10_000):
        count = int(rng.integers(2, 10))
        i_ph = rng.uniform(0.0, 1e-2, count)
        r = rng.uniform(1e-1, 1e5, count)
        value = short_circuit_current([CellElectrical(float(i), float(s)) for i, s in zip(i_ph, r)])
        bounded_ok &= i_ph.min() <= value <= i_ph.max()
    ok = uniform_ok and bounded_ok
    assert record(4, ok, "uniform cells give exactly i_ph; 1e4 heterogeneous cases stay in [min, max]")


def test_criterion_05_fit_recovery():
    v_t = K_B * 300.0 / Q_E
    lux = np.logspace(1.0, 3.0, 50)
    clean = 1.5 * v_t * np.log1p(20.0 * lux)

    samples = [ResponseSample(float(l), float(v)) for l, v in zip(lux, clean)]
    start = time.perf_counter()
    fit = fit_response(samples, 1, 300.0)
    clean_time = time.perf_counter() - start
    noiseless_ok = (abs(fit.n_hat / 1.5 - 1.0) <= 1e-5 and abs(fit.a_hat / 20.0 - 1.0) <= 1e-5)

    estimates, times = [], [clean_time]
    for seed in range(100):
        noisy = clean + np.random.default_rng(seed).normal(0.0, 1e-3, lux.size)
        noisy_samples = [ResponseSample(float(l), float(max(v, 0.0))) for l, v in zip(lux, noisy)]
        start = time.perf_counter()
        noisy_fit = fit_response(noisy_samples, 1, 300.0)
        times.append(time.perf_counter() - start)
        estimates.append(noisy_fit.n_hat)
    median_n = float(np.median(estimates))
    noisy_ok = abs(median_n / 1.5 - 1.0) <= 0.05
    timing_ok = max(times) < 0.1
    ok = noiseless_ok and noisy_ok and timing_ok
    assert record(5, ok, f"noiseless rel err n {abs(fit.n_hat / 1.5 - 1):.1e}, "
                         f"a {abs(fit.a_hat / 20.0 - 1):.1e}; noisy median n {median_n:.4f}; "
                         f"slowest fit {max(times) * 1e3:.1f} ms")


def test_criterion_06_level_spacing():
    gaps_low = np.diff(noiseless_centroids(250.0, 0.3))
    ratio_low = float(gaps_low[2] / gaps_low[0])
    # the high-illuminance inset keeps the same absolute swing, so the
    # modulation index scales down with the DC level: 0.3 * 250 / 1250
    gaps_high = np.diff(noiseless_centroids(1250.0, 0.3 * 250.0 / 1250.0))
    ratio_high = float(gaps_high[2] / gaps_high[0])
    ok = ratio_low < 0.8 and 0.9 <= ratio_high <= 1.0
    assert record(6, ok, f"top/bottom gap ratio {ratio_low:.4f} at 250 lux, "
                         f"{ratio_high:.4f} at the 1250 lux analog")


@pytest.fixture(scope="module")
def ber_vs_m_table():
    config = LinkConfig(seed=BASE_SEED)
    start = time.perf_counter()
    rows = sweep_ber_vs_m(M_GRID, BER_VS_M_ILLUMINANCES, config, DEFAULT_MODULE,
                          repetitions=5, n_jobs=N_JOBS)
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_07_ber_vs_m_shape(ber_vs_m_table):
    rows, elapsed = ber_vs_m_table
    curve = {tx: [ber for t, m, ber, _ in rows if t == tx] for tx in (200.0, 650.0)}
    low = np.array(curve[200.0])
    high = np.array(curve[650.0])
    argmin = int(np.argmin(low))
    interior = 0 < argmin < low.size - 1
    two_fold = low[0] >= 2 * low.min() and low[-1] >= 2 * low.min()
    non_increasing = bool(np.all(np.diff(high) <= 0))
    runtime_ok = elapsed < 60.0
    ok = interior and two_fold and non_increasing and runtime_ok
    detail = (f"200-lux analog BER {np.array2string(low, precision=2)} "
              f"(argmin index {argmin}, interior={interior}); 650-lux analog "
              f"non-increasing={non_increasing}; sweep {elapsed:.1f} s on {N_JOBS} workers")
    assert record(7, ok, detail)


def test_criterion_08_ber_vs_dcl_shape():
    config = LinkConfig(seed=BASE_SEED, tx_dc_lux=425.0)
    dcl_grid = tuple(np.arange(0.0, 1501.0, 150.0))
    rows = sweep_ber_vs_dcl(dcl_grid, DCL_M_LIST, config, DEFAULT_MODULE,
                            repetitions=5, n_jobs=N_JOBS)
    interior_all = True
    improvements = []
    for m in DCL_M_LIST:
        bers = np.array([ber for mm, _, ber in rows if mm == m])
        argmin = int(np.argmin(bers))
        interior_all &= 0 < argmin < bers.size - 1
        improvements.append(bers[0] / bers.min() if bers.min() > 0 else math.inf if bers[0] > 0 else 1.0)
    five_fold = max(improvements) >= 5.0
    ok = interior_all and five_fold
    detail = (f"interior minimum for all m={interior_all}, "
              f"best dcl=0/argmin BER ratio {max(improvements):.2f} (need >= 5)")
    assert record(8, ok, detail)


def test_criterion_09_post_distortion():
    config = LinkConfig(seed=BASE_SEED, tx_dc_lux=POSTDIST_TX_LUX)
    rows = sweep_postdistortion(POSTDIST_M_GRID, config, DEFAULT_MODULE,
                                repetitions=20, n_jobs=N_JOBS)
    helped = all(comp <= plain for _, plain, comp in rows)
    tail_rising = rows[-1][2] > rows[-2][2]
    ok = helped and tail_rising
    detail = ("plain vs compensated " +
              "; ".join(f"m={m}: {p:.2e}/{c:.2e}" for m, p, c in rows) +
              f"; compensated<=plain for all m={helped}, rising tail={tail_rising}")
    assert record(9, ok, detail)


def test_criterion_10_determinism(tmp_path):
    config = LinkConfig(seed=BASE_SEED)
    m_grid = (0.2, 0.4)
    illum = (200.0, 650.0)
    kwargs = dict(repetitions=2, payload_symbols=10_000)
    serial = sweep_ber_vs_m(m_grid, illum, config, DEFAULT_MODULE, n_jobs=1, **kwargs)
    parallel = sweep_ber_vs_m(m_grid, illum, config, DEFAULT_MODULE, n_jobs=2, **kwargs)
    write_csv(tmp_path / "serial.csv", ("tx", "m", "ber", "fec"), serial)
    write_csv(tmp_path / "parallel.csv", ("tx", "m", "ber", "fec"), parallel)
    csv_identical = (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()

    payload = payload_bits(20_000, config.seed)
    rerun_identical = True
    for tx, m, ber, _ in serial:
        cell_bers = [
            run_link(ber_point_config(config, tx, m, config.dcl_lux, rep), DEFAULT_MODULE, payload).ber
            for rep in range(2)
        ]
        rerun_identical &= float(np.median(cell_bers)) == ber
    ok = csv_identical and rerun_identical
    assert record(10, ok, f"parallel/serial CSVs identical={csv_identical}, "
                          f"isolated cell re-runs bit-identical={rerun_identical}")


def test_criterion_11_noiseless_end_to_end():
    payload = payload_bits(20_000, 11)
    worst = 0.0
    for tx_dc in (20.0, 250.0, 425.0, 1250.0):
        for m in (0.05, 0.3, 1.0):
            config = LinkConfig(tx_dc_lux=tx_dc, mod_index=m, thermal_sigma_v=0.0,
                                noise_bandwidth_hz=0.0, seed=11)
            worst = max(worst, run_link(config, MODULE, payload).ber)
    ok = worst == 0.0
    assert record(11, ok, f"max noiseless BER over illuminance x m grid = {worst}")
