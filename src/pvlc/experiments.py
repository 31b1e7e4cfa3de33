"""Sweep harness: tabulate model curves and Monte-Carlo BER grids as CSV.

Every BER cell derives its seed from the base seed and its operating
coordinates (see `pvlc.seeding`), so re-running any single cell in
isolation reproduces it bit-for-bit and parallel execution is
indistinguishable from serial.  With n_jobs = N the cells run on the
calling thread plus N - 1 pool threads in one process and share one
read-only payload; their numpy and scipy work releases the interpreter
lock.  Repeated cells are summarized by their median BER.  A post-distorted
cell keeps no whole waveform: its compensated receiver takes statistics of
each block's inverse as the block is built.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .compensation import DEFAULT_GAIN_CAP, PostDistortionConfig
from .device import (
    ModuleSpec,
    PVCellParams,
    check_count,
    first_derivative,
    is_finite,
    module_voltage,
    second_derivative,
)
from .link import FEC_BER_THRESHOLD, LinkConfig, simulate
from .seeding import payload_bits, point_seed

# Committed defaults for reproducing the study's sweep families.
DEFAULT_MODULE = ModuleSpec(cell_count=1, params=PVCellParams(n=1.5, i0=1e-10, eta=2e-9))
RESPONSE_LUX_GRID = tuple(np.arange(0.0, 2001.0, 10.0))
RESPONSE_CELL_COUNTS = (1, 2, 4, 8)
M_GRID = (0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.45)
BER_VS_M_ILLUMINANCES = (200.0, 350.0, 500.0, 650.0)
DCL_GRID = tuple(np.arange(0.0, 1501.0, 50.0))
DCL_M_LIST = (0.2, 0.3, 0.4)
POSTDIST_M_GRID = (0.2, 0.25, 0.3, 0.35, 0.4)
POSTDIST_TX_LUX = 350.0
REPETITIONS = 5
PAYLOAD_SYMBOLS = 250_000

CSV_HEADERS = {
    "response": ("lux", "cells", "volts"),
    "derivatives": ("lux", "cells", "dv", "d2v"),
    "ber_vs_m": ("tx_dc_lux", "mod_index", "ber", "pass_fec"),
    "ber_vs_dcl": ("mod_index", "dcl_lux", "ber"),
    "postdist": ("mod_index", "ber_plain", "ber_compensated"),
}


def _check_grid(grid, name):
    """The grid as floats, non-empty and strictly ascending; LinkConfig checks each value's range."""
    grid = list(grid)
    if not grid:
        raise ValueError(f"{name} must not be empty")
    if not all(map(is_finite, grid)):   # before float(), which would take '0.1' and True
        raise ValueError(f"{name} values must be finite")
    grid = [float(g) for g in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be strictly ascending")
    return grid


def _curve_table(lux_grid, cell_counts, spec: ModuleSpec, curves):
    """Rows of (lux, cells, *one value per curve) for each cell count."""
    lux_grid = np.asarray(_check_grid(lux_grid, "lux_grid"))
    rows = []
    for cells in cell_counts:
        module = replace(spec, cell_count=cells)   # ModuleSpec checks the count
        columns = [curve(lux_grid, module) for curve in curves]
        rows.extend((float(l), int(cells), *map(float, values)) for l, *values in zip(lux_grid, *columns))
    return rows


def sweep_response(lux_grid, cell_counts, spec: ModuleSpec):
    """DC response table: rows of (lux, cells, volts)."""
    return _curve_table(lux_grid, cell_counts, spec, (module_voltage,))


def sweep_derivatives(lux_grid, cell_counts, spec: ModuleSpec):
    """Response slope and curvature table: rows of (lux, cells, dv, d2v)."""
    return _curve_table(lux_grid, cell_counts, spec, (first_derivative, second_derivative))


def _run_cells(cell, items, n_jobs):
    """[cell(*item) for item in items] as a float array, computed on min(n_jobs, items) threads.

    The calling thread and its pool's helpers take items from one queue.  A
    failing cell empties the queue, and its error is raised once the other
    threads have finished their current cells.
    """
    todo = iter(range(len(items)))   # next() on it is atomic under the GIL
    results = [None] * len(items)

    def work():
        try:
            for i in todo:
                results[i] = cell(*items[i])
        except BaseException:
            for _ in todo:   # so that no thread takes another cell
                pass
            raise

    helpers = min(n_jobs, len(items)) - 1
    with ThreadPoolExecutor(max_workers=max(helpers, 1)) as pool:   # starts no thread until a submit
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
    for future in futures:
        future.result()
    return np.asarray(results, dtype=float)


def ber_point_config(base_config: LinkConfig, tx_dc_lux, mod_index, dcl_lux, rep):
    """The exact LinkConfig a sweep uses for one cell (exposed for re-runs)."""
    return replace(
        base_config,
        tx_dc_lux=float(tx_dc_lux),
        mod_index=float(mod_index),
        dcl_lux=float(dcl_lux),
        seed=point_seed(base_config.seed, float(tx_dc_lux), float(mod_index), float(dcl_lux), rep),
    )


def _median_bers(points, base_config, spec, repetitions, payload_symbols, n_jobs, gain_cap=None):
    """Median BERs over `repetitions` seeded cells per (tx, m, dcl) point.

    An array of shape (points, receivers): the plain receiver, then, given a
    `gain_cap`, the post-distorted one (a `PostDistortionConfig` entry) on
    the same noise realization.  Every cell is built before the first one
    runs, so a bad point fails before any work; each cell runs `simulate`
    on the one read-only payload.
    """
    for name, count in (("repetitions", repetitions), ("payload_symbols", payload_symbols), ("n_jobs", n_jobs)):
        check_count(name, count, 1)
    bits = payload_bits(2 * int(payload_symbols), base_config.seed)   # a numpy integer could overflow
    bits.flags.writeable = False
    cells = []
    for tx, m, dcl in points:
        for rep in range(repetitions):
            config = ber_point_config(base_config, tx, m, dcl, rep)
            receivers = (None,)
            if gain_cap is not None:
                operating = config.tx_dc_lux + config.dcl_lux + config.ambient_lux
                receivers += (PostDistortionConfig(operating, gain_cap),)
            cells.append((config, receivers))

    def bers_of(config, receivers):
        return [trace.report.ber for trace in simulate(config, spec, bits, receivers)]

    bers = _run_cells(bers_of, cells, n_jobs)
    return np.median(bers.reshape(len(points), repetitions, -1), axis=1)


def sweep_ber_vs_m(
    m_grid,
    illuminance_list,
    base_config: LinkConfig,
    spec: ModuleSpec,
    repetitions: int = REPETITIONS,
    payload_symbols: int = PAYLOAD_SYMBOLS,
    n_jobs: int = 1,
):
    """Median BER per (tx illuminance, modulation index) grid point."""
    m_grid = _check_grid(m_grid, "m_grid")
    illuminance_list = _check_grid(illuminance_list, "illuminance_list")
    points = [(tx, m, base_config.dcl_lux) for tx in illuminance_list for m in m_grid]
    bers = _median_bers(points, base_config, spec, repetitions, payload_symbols, n_jobs)
    return [
        (tx, m, float(ber), int(ber < FEC_BER_THRESHOLD))
        for (tx, m, _), (ber,) in zip(points, bers)
    ]


def sweep_ber_vs_dcl(
    dcl_grid,
    m_list,
    base_config: LinkConfig,
    spec: ModuleSpec,
    repetitions: int = REPETITIONS,
    payload_symbols: int = PAYLOAD_SYMBOLS,
    n_jobs: int = 1,
):
    """Median BER per (modulation index, compensation-light illuminance)."""
    dcl_grid = _check_grid(dcl_grid, "dcl_grid")
    m_list = _check_grid(m_list, "m_list")
    points = [(base_config.tx_dc_lux, m, dcl) for m in m_list for dcl in dcl_grid]
    bers = _median_bers(points, base_config, spec, repetitions, payload_symbols, n_jobs)
    return [(m, dcl, float(ber)) for (_, m, dcl), (ber,) in zip(points, bers)]


def sweep_postdistortion(
    m_grid,
    base_config: LinkConfig,
    spec: ModuleSpec,
    gain_cap: float = DEFAULT_GAIN_CAP,
    repetitions: int = REPETITIONS,
    payload_symbols: int = PAYLOAD_SYMBOLS,
    n_jobs: int = 1,
):
    """Plain versus post-distorted BER on identical noise realizations.

    Each (m, rep) cell builds one noisy waveform block by block and slices
    it twice: by its statistics as received, and by the statistics of each
    block's post-distorted inverse, with no whole waveform kept.  So the two
    columns differ only by the compensation.
    """
    m_grid = _check_grid(m_grid, "m_grid")
    points = [(base_config.tx_dc_lux, m, base_config.dcl_lux) for m in m_grid]
    bers = _median_bers(points, base_config, spec, repetitions, payload_symbols, n_jobs, gain_cap)
    return [(m, float(plain), float(compensated)) for (_, m, _), (plain, compensated) in zip(points, bers)]


def export_eye(v, samples_per_symbol: int, traces: int):
    """Overlapped two-symbol-wide waveform traces for eye-diagram plotting.

    Consecutive traces advance by one symbol, so adjacent rows overlap by
    half their width.  Returns a (traces, 2*samples_per_symbol) array.
    """
    v = np.asarray(v, dtype=float)
    # Python ints: the size check's product of numpy integers could overflow
    samples_per_symbol = int(check_count("samples_per_symbol", samples_per_symbol, 1))
    traces = int(check_count("traces", traces, 1))
    if v.size < traces * 2 * samples_per_symbol:
        raise ValueError(
            f"waveform has {v.size} samples, need at least {traces * 2 * samples_per_symbol}"
        )
    width = 2 * samples_per_symbol
    return np.stack([v[k * samples_per_symbol : k * samples_per_symbol + width] for k in range(traces)])


def _format_cell(value):
    if isinstance(value, (int, np.integer, np.bool_)):   # bool is an int
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(destination, header, rows):
    """Write a table with 17-significant-digit floats (stable schema)."""
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_format_cell(cell) for cell in row) + "\n")


def write_eye_csv(eye_matrix, destination):
    """Eye traces as CSV, one trace per row, columns s0..s{2*sps-1}."""
    eye_matrix = np.asarray(eye_matrix, dtype=float)
    header = tuple(f"s{k}" for k in range(eye_matrix.shape[1]))
    write_csv(destination, header, eye_matrix)
