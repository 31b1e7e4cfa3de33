import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from pvlc import experiments
from pvlc.compensation import PostDistortionConfig, post_distort
from pvlc.device import ModuleSpec, PVCellParams
from pvlc.experiments import (
    CSV_HEADERS,
    ber_point_config,
    export_eye,
    sweep_ber_vs_dcl,
    sweep_ber_vs_m,
    sweep_derivatives,
    sweep_postdistortion,
    sweep_response,
    write_csv,
)
from pvlc.link import DetectionError, LinkConfig, run_link, simulate
from pvlc.seeding import mix64, payload_bits, point_seed

PARAMS = PVCellParams(n=1.5, i0=1e-10, eta=2e-9, temperature=300.0)
MODULE = ModuleSpec(cell_count=1, params=PARAMS)

FAST = dict(repetitions=2, payload_symbols=4000)


def base_config(**overrides):
    values = dict(seed=2024, thermal_sigma_v=1.5e-3)
    values.update(overrides)
    return LinkConfig(**values)


class TestSeeding:
    def test_mix64_spread(self):
        seeds = {mix64(1, k) for k in range(1000)}
        assert len(seeds) == 1000

    def test_point_seed_ignores_grid_position(self):
        a = point_seed(7, 425.0, 0.3, 0.0, 2)
        b = point_seed(7, 425.0, 0.3, 0.0, 2)
        assert a == b
        assert point_seed(7, 425.0, 0.3, 50.0, 2) != a

    def test_payload_fixed_by_base_seed(self):
        assert np.array_equal(payload_bits(1000, 5), payload_bits(1000, 5))
        assert not np.array_equal(payload_bits(1000, 5), payload_bits(1000, 6))
        assert np.array_equal(payload_bits(np.int64(1000), np.uint64(5)), payload_bits(1000, 5))
        assert payload_bits(0, 5).size == 0

    @pytest.mark.parametrize("args,match", [
        ((10, 1.5), "base_seed must be an integer >= 0, got 1.5"), ((10, True), "base_seed must be an integer >= 0, got True"),
        ((10, -1), "base_seed must be an integer >= 0, got -1"), ((2.5, 1), "n_bits must be an integer >= 0, got 2.5"),
        ((-2, 1), "n_bits must be an integer >= 0, got -2"),
    ])
    def test_payload_rejects_non_counts(self, args, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            payload_bits(*args)


class TestResponseSweeps:
    @pytest.mark.parametrize("count", [1.5, True, 0])
    def test_cell_counts_are_not_rounded(self, count):
        with pytest.raises(ValueError, match=re.escape(f"cell_count must be an integer >= 1, got {count!r}")):
            sweep_response([0.0, 10.0], [1, count], MODULE)

    @pytest.mark.parametrize("sweep", [sweep_response, sweep_derivatives])
    @pytest.mark.parametrize("grid,match", [
        ([], "lux_grid must not be empty"),
        ([float("inf")], "lux_grid values must be finite"),
        ([10.0, float("nan")], "lux_grid values must be finite"),
        ([20.0, 10.0], "lux_grid must be strictly ascending"),
        ([10.0, 20.0, 20.0], "lux_grid must be strictly ascending"),
    ])
    def test_lux_grid_checked_as_the_ber_grids(self, sweep, grid, match):
        """The curve tables read their lux grid by the BER sweeps' rule, not as given."""
        with pytest.raises(ValueError, match=match):
            sweep(grid, [1], MODULE)

    def test_zero_lux_rows_zero(self):
        rows = sweep_response([0.0, 10.0, 100.0], [1, 2, 4, 8], MODULE)
        for lux, cells, volts in rows:
            if lux == 0.0:
                assert volts == 0.0

    def test_proportional_to_cells(self):
        rows = sweep_response([250.0], [1, 2, 4, 8], MODULE)
        base = rows[0][2]
        for lux, cells, volts in rows:
            assert volts == cells * base

    def test_each_slice_concave(self):
        grid = np.arange(0.0, 2001.0, 10.0)
        rows = sweep_response(grid, [1, 4], MODULE)
        for cells in (1, 4):
            volts = np.array([v for l, c, v in rows if c == cells])
            assert np.all(np.diff(volts, 2) < 0)

    def test_derivative_signs(self):
        rows = sweep_derivatives(np.arange(10.0, 2001.0, 10.0), [1, 2], MODULE)
        for lux, cells, dv, d2v in rows:
            assert dv > 0 and d2v < 0

    def test_more_cells_steeper_and_more_curved(self):
        rows = {cells: (dv, d2v) for lux, cells, dv, d2v in
                sweep_derivatives([400.0], [1, 8], MODULE)}
        assert abs(rows[8][0]) > abs(rows[1][0])
        assert abs(rows[8][1]) > abs(rows[1][1])

    def test_derivative_matches_response_differences(self):
        grid = np.arange(10.0, 2001.0, 10.0)
        resp = sweep_response(grid, [1], MODULE)
        deriv = sweep_derivatives(grid, [1], MODULE)
        volts = np.array([v for _, _, v in resp])
        dv = np.array([d for _, _, d, _ in deriv])
        fd = np.gradient(volts, grid)
        # central differences on a step-10 grid track 1/L to 1e-4 relative
        # only once h^2/(3 L^2) drops below 1e-4, i.e. L >= ~580 lux
        resolved = grid >= 600.0
        resolved[0] = resolved[-1] = False
        assert np.allclose(fd[resolved], dv[resolved], rtol=1e-4)


class TestBerSweeps:
    def test_cross_sweep_identity_at_zero_dcl(self):
        config = base_config(tx_dc_lux=425.0)
        m_rows = sweep_ber_vs_m([0.2, 0.3], [425.0], config, MODULE, **FAST)
        d_rows = sweep_ber_vs_dcl([0.0, 100.0], [0.2, 0.3], config, MODULE, **FAST)
        ber_m = {m: ber for tx, m, ber, _ in m_rows}
        ber_d = {m: ber for m, dcl, ber in d_rows if dcl == 0.0}
        assert ber_m == ber_d

    def test_cell_rerun_is_bit_identical(self):
        config = base_config()
        rows = sweep_ber_vs_dcl([0.0, 50.0], [0.3], config, MODULE, repetitions=1, payload_symbols=4000)
        payload = payload_bits(8000, config.seed)
        for m, dcl, ber in rows:
            point = ber_point_config(config, config.tx_dc_lux, m, dcl, 0)
            assert run_link(point, MODULE, payload).ber == ber

    @pytest.mark.parametrize("sweep", [
        lambda **kw: sweep_ber_vs_m([0.1, 0.3], [200.0, 650.0], base_config(), MODULE, **kw),
        lambda **kw: sweep_ber_vs_dcl([0.0, 300.0], [0.2, 0.4], base_config(), MODULE, **kw),
        lambda **kw: sweep_postdistortion([0.2, 0.3, 0.4], base_config(tx_dc_lux=350.0), MODULE, **kw),
    ], ids=["ber_vs_m", "ber_vs_dcl", "postdist"])
    def test_parallel_serial_identical(self, sweep):
        """Also with more threads than cores, switching threads every microsecond."""
        serial = sweep(n_jobs=1, **FAST)
        assert sweep(n_jobs=2, **FAST) == serial
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert sweep(n_jobs=8, **FAST) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_noise_off_all_zero(self):
        config = base_config(thermal_sigma_v=0.0, noise_bandwidth_hz=0.0)
        rows = sweep_postdistortion([0.2, 0.4], config, MODULE, **FAST)
        for m, plain, comp in rows:
            assert plain == 0.0 and comp == 0.0

    def test_postdist_rows_have_both_columns(self):
        config = base_config(tx_dc_lux=350.0)
        rows = sweep_postdistortion([0.3], config, MODULE, **FAST)
        assert len(rows) == 1
        m, plain, comp = rows[0]
        assert m == 0.3 and plain >= 0.0 and comp >= 0.0

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_postdist_pair_equals_separate_runs(self, n_jobs):
        """Sharing one realization per cell gives the BERs of two separate run_link calls."""
        config = base_config(tx_dc_lux=350.0)
        m_grid = [0.2, 0.3]
        rows = sweep_postdistortion(m_grid, config, MODULE, gain_cap=4.0, n_jobs=n_jobs, **FAST)
        payload = payload_bits(2 * FAST["payload_symbols"], config.seed)
        expected = []
        for m in m_grid:
            pairs = []
            for rep in range(FAST["repetitions"]):
                point = ber_point_config(config, config.tx_dc_lux, m, config.dcl_lux, rep)
                cfg = PostDistortionConfig(operating_lux=point.tx_dc_lux, gain_cap=4.0)
                post = lambda v: post_distort(v, MODULE, cfg)  # noqa: E731
                pairs.append((run_link(point, MODULE, payload).ber,
                              run_link(point, MODULE, payload, postprocess=post).ber))
            plain, compensated = np.median(pairs, axis=0)
            expected.append((m, float(plain), float(compensated)))
        assert rows == expected
        assert all(plain > 0 and compensated > 0 for _, plain, compensated in rows)

    def test_postdist_sweep_at_gain_capped_tie(self):
        """At mod_index 1 the gain cap clips levels 2 and 3 to one value; the sweep's compensated
        BER is still the callable post_distort's, because tied centroids decide alike."""
        config = base_config(seed=2036, tx_dc_lux=200.0, lpf_cutoff_hz=5e5)
        ((m, _, compensated),) = sweep_postdistortion([1.0], config, MODULE, gain_cap=4.0, **FAST)
        payload = payload_bits(2 * FAST["payload_symbols"], config.seed)
        cfg = PostDistortionConfig(operating_lux=200.0, gain_cap=4.0)
        bers, tied = [], 0
        for rep in range(FAST["repetitions"]):
            point = ber_point_config(config, 200.0, 1.0, config.dcl_lux, rep)
            trace = simulate(point, MODULE, payload, (lambda v: post_distort(v, MODULE, cfg),))[0]
            tied += np.unique(trace.centroids).size < 4
            bers.append(trace.report.ber)
        assert tied
        assert (m, compensated) == (1.0, float(np.median(bers)))

    def test_cells_share_one_read_only_payload(self, monkeypatch):
        seen = []

        def recording_simulate(config, spec, bits, postprocesses):
            seen.append(bits)
            return simulate(config, spec, bits, postprocesses)

        monkeypatch.setattr(experiments, "simulate", recording_simulate)
        config = base_config()
        sweep_ber_vs_dcl([0.0, 100.0], [0.3], config, MODULE, n_jobs=2, **FAST)
        assert len(seen) == 2 * FAST["repetitions"]
        assert all(bits is seen[0] for bits in seen)
        assert not seen[0].flags.writeable
        assert np.array_equal(seen[0], payload_bits(2 * FAST["payload_symbols"], config.seed))

    def test_failing_cell_cancels_queued_cells(self, monkeypatch):
        """The first cell raises; the queued ones are cancelled, not run."""
        calls = []
        lock = threading.Lock()

        def failing_simulate(*args):
            with lock:
                calls.append(args[0])
                first = len(calls) == 1
            if not first:
                time.sleep(0.01)
            raise DetectionError("stand-in failure")

        monkeypatch.setattr(experiments, "simulate", failing_simulate)
        cells = 40
        with pytest.raises(DetectionError):
            sweep_ber_vs_m([0.3], [425.0], base_config(), MODULE, repetitions=cells,
                           payload_symbols=100, n_jobs=2)
        assert 1 <= len(calls) < cells

    def test_grid_validation(self):
        config = base_config()
        with pytest.raises(ValueError):
            sweep_ber_vs_m([], [200.0], config, MODULE, **FAST)
        with pytest.raises(ValueError):
            sweep_ber_vs_m([0.3, 0.2], [200.0], config, MODULE, **FAST)
        with pytest.raises(ValueError):
            sweep_ber_vs_m([0.2, 1.2], [200.0], config, MODULE, **FAST)
        with pytest.raises(ValueError, match="dcl_grid must not be empty"):
            sweep_ber_vs_dcl([], [0.3], config, MODULE, **FAST)
        with pytest.raises(ValueError, match="dcl_grid must be strictly ascending"):
            sweep_ber_vs_dcl([100.0, 50.0], [0.3], config, MODULE, **FAST)
        with pytest.raises(ValueError, match="dcl_lux"):
            sweep_ber_vs_dcl([-50.0, 100.0], [0.3], config, MODULE, **FAST)

    @pytest.mark.parametrize("sweep,grid", [
        (lambda g: sweep_ber_vs_dcl(g, [0.3], base_config(), MODULE, **FAST), "dcl_grid"),
        (lambda g: sweep_ber_vs_dcl([0.0], g, base_config(), MODULE, **FAST), "m_list"),
        (lambda g: sweep_ber_vs_m([0.3], g, base_config(), MODULE, **FAST), "illuminance_list"),
        (lambda g: sweep_postdistortion(g, base_config(), MODULE, **FAST), "m_grid"),
    ], ids=["dcl_grid", "m_list", "illuminance_list", "m_grid"])
    @pytest.mark.parametrize("values", [[float("nan")], [0.0, float("inf")], [425.0, float("inf")],
                                        ["0.1", 0.3], [0.1, True], [np.True_], [None]],
                             ids=["nan", "0,inf", "425,inf", "str", "bool", "np_bool", "None"])
    def test_non_finite_grid_rejected(self, monkeypatch, sweep, grid, values):
        monkeypatch.setattr(experiments, "_run_cells", lambda *_: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match=f"{grid} values must be finite"):
            sweep(values)

    @pytest.mark.parametrize("sweep,match", [
        (lambda: sweep_postdistortion([0.2, 1.5], base_config(), MODULE, **FAST), "mod_index"),
        (lambda: sweep_ber_vs_dcl([0.0], [0.3, 1.5], base_config(), MODULE, **FAST), "mod_index"),
        (lambda: sweep_postdistortion([0.2], base_config(), MODULE, gain_cap=0.5, **FAST), "gain_cap"),
        (lambda: sweep_ber_vs_m([0.2, 1.2], [200.0], base_config(), MODULE, **FAST), "mod_index"),
        (lambda: sweep_ber_vs_dcl([-50.0, 100.0], [0.3], base_config(), MODULE, **FAST), "dcl_lux"),
    ], ids=["postdist_m", "dcl_m_list", "gain_cap", "ber_vs_m_m", "dcl_grid"])
    def test_bad_point_fails_before_any_cell_runs(self, monkeypatch, sweep, match):
        """Every cell's LinkConfig and receivers are built before the first cell runs."""
        monkeypatch.setattr(experiments, "_run_cells", lambda *_: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match=match):
            sweep()

    @pytest.mark.parametrize("n_jobs,repetitions", [(2, 10), (8, 3), (4, 1), (1, 5)])
    def test_caller_runs_cells_with_helpers(self, monkeypatch, n_jobs, repetitions):
        """Cells run on at most min(n_jobs, cells) threads, the caller among them; one thread starts none."""
        before = set(threading.enumerate())
        computing, alive = set(), set()

        def recording_simulate(*args):
            computing.add(threading.get_ident())
            alive.update(threading.enumerate())
            time.sleep(0.02)   # so that no helper finishes its cell before the caller takes one
            return simulate(*args)

        sweep = lambda n: sweep_ber_vs_m([0.3], [425.0], base_config(), MODULE,  # noqa: E731
                                         repetitions=repetitions, payload_symbols=2000, n_jobs=n)
        serial = sweep(1)
        monkeypatch.setattr(experiments, "simulate", recording_simulate)
        assert sweep(n_jobs) == serial
        threads = min(n_jobs, repetitions)
        assert threading.get_ident() in computing
        assert len(computing) <= threads
        if threads == 1:
            assert alive == before

    def test_failing_helper_cell_raises(self, monkeypatch):
        """A cell that fails on a pool thread stops the sweep, and the caller raises its error."""
        caller = threading.get_ident()
        calls = []

        def failing_off_caller(*args):
            calls.append(args[0])
            if threading.get_ident() != caller:
                raise DetectionError("stand-in helper failure")
            time.sleep(0.01)
            return simulate(*args)

        monkeypatch.setattr(experiments, "simulate", failing_off_caller)
        cells = 40
        with pytest.raises(DetectionError, match="helper failure"):
            sweep_ber_vs_m([0.3], [425.0], base_config(), MODULE, repetitions=cells,
                           payload_symbols=2000, n_jobs=2)
        assert 1 <= len(calls) < cells

    @pytest.mark.parametrize("sweep", [
        lambda **kw: sweep_ber_vs_m([0.3], [425.0], base_config(), MODULE, **kw),
        lambda **kw: sweep_ber_vs_dcl([0.0], [0.3], base_config(), MODULE, **kw),
        lambda **kw: sweep_postdistortion([0.3], base_config(), MODULE, **kw),
    ], ids=["ber_vs_m", "ber_vs_dcl", "postdist"])
    def test_zero_repetitions_rejected(self, sweep):
        with pytest.raises(ValueError, match="repetitions must be an integer >= 1"):
            sweep(repetitions=0, payload_symbols=4000)

    @pytest.mark.parametrize("sweep", [
        lambda **kw: sweep_ber_vs_m([0.3], [425.0], base_config(), MODULE, **kw),
        lambda **kw: sweep_ber_vs_dcl([0.0], [0.3], base_config(), MODULE, **kw),
        lambda **kw: sweep_postdistortion([0.3], base_config(), MODULE, **kw),
    ], ids=["ber_vs_m", "ber_vs_dcl", "postdist"])
    @pytest.mark.parametrize("name", ["repetitions", "payload_symbols", "n_jobs"])
    @pytest.mark.parametrize("value", [0, -3, 2.5, True, np.int64(0), None, "2"])
    def test_bad_count_fails_before_any_cell_runs(self, monkeypatch, sweep, name, value):
        monkeypatch.setattr(experiments, "_run_cells", lambda *_: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {re.escape(repr(value))}"):
            sweep(**(FAST | {name: value}))

    def test_numpy_integer_counts_accepted(self):
        rows = sweep_ber_vs_m([0.3], [425.0], base_config(), MODULE, repetitions=np.int64(2),
                              payload_symbols=np.int64(2000), n_jobs=np.int64(2))
        assert rows == sweep_ber_vs_m([0.3], [425.0], base_config(), MODULE, repetitions=2, payload_symbols=2000)

    def test_sweep_peak_memory_below_one_waveform(self):
        """tracemalloc peak of a 4-cell sweep on 2 threads at 50 000 payload symbols: its
        plain cells hold symbol statistics and a block buffer, never a whole waveform."""
        config = base_config()
        waveform_bytes = (config.training_symbols + 50_000) * config.samples_per_symbol * 8
        tracemalloc.start()
        try:
            sweep_ber_vs_m([0.2, 0.3], [300.0, 425.0], config, MODULE, repetitions=1,
                           payload_symbols=50_000, n_jobs=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * waveform_bytes

    @pytest.mark.parametrize("lpf", [None, 5e5])
    def test_postdistortion_sweep_peak_memory(self, lpf):
        """tracemalloc peak of a 2-cell post-distortion sweep on 2 threads at 50 000 payload
        symbols: each cell holds one waveform and a scratch block, never a compensated copy
        (measured 2.99x one waveform, 3.03x with the low-pass; 4.93x with the copy)."""
        config = base_config(tx_dc_lux=350.0, lpf_cutoff_hz=lpf)
        waveform_bytes = (config.training_symbols + 50_000) * config.samples_per_symbol * 8
        tracemalloc.start()
        try:
            sweep_postdistortion([0.2, 0.3], config, MODULE, repetitions=1, payload_symbols=50_000, n_jobs=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * waveform_bytes


class TestEye:
    def noiseless_eye(self, tx_dc, mod_index, traces=32):
        config = LinkConfig(tx_dc_lux=tx_dc, mod_index=mod_index, thermal_sigma_v=0.0,
                            noise_bandwidth_hz=0.0, seed=11)
        (trace,) = simulate(config, MODULE, payload_bits(2 * 512, config.seed), (lambda v: v,))
        sps = config.samples_per_symbol
        return export_eye(trace.v[config.training_symbols * sps:], sps, traces), config

    def test_constant_input_identical_rows(self):
        eye = export_eye(np.full(160, 2.5), 8, 8)
        assert np.all(eye == eye[0])

    def test_insufficient_samples_rejected(self):
        with pytest.raises(ValueError):
            export_eye(np.zeros(100), 8, 10)

    @pytest.mark.parametrize("sps,traces,match", [
        (8, 2.5, "traces must be an integer >= 1, got 2.5"), (8, True, "traces must be an integer >= 1, got True"),
        (8, 0, "traces must be an integer >= 1, got 0"), (8.0, 4, "samples_per_symbol must be an integer >= 1, got 8.0"),
        (0, 4, "samples_per_symbol must be an integer >= 1, got 0"),
    ])
    def test_non_count_arguments_rejected(self, sps, traces, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            export_eye(np.zeros(1000), sps, traces)

    def eye_gaps(self, tx_dc, mod_index):
        eye, config = self.noiseless_eye(tx_dc, mod_index)
        column = np.unique(eye[:, config.samples_per_symbol // 2])
        assert column.size == 4
        return np.diff(column)

    def test_low_lux_top_eye_smaller(self):
        gaps = self.eye_gaps(250.0, 0.3)
        assert gaps[2] < gaps[0]

    def test_high_lux_openings_uniform(self):
        # same absolute swing as the 250 lux case, raised to 1250 lux DC
        gaps = self.eye_gaps(1250.0, 0.3 * 250.0 / 1250.0)
        assert (np.max(gaps) - np.min(gaps)) <= 0.1 * np.max(gaps)


class TestCsv:
    def test_headers_and_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, CSV_HEADERS["ber_vs_m"], [(425.0, 1 / 3, 1.2345678901234567e-3, 1)])
        lines = path.read_text().splitlines()
        assert lines[0] == "tx_dc_lux,mod_index,ber,pass_fec"
        cells = lines[1].split(",")
        assert float(cells[1]) == 1 / 3
        assert float(cells[2]) == 1.2345678901234567e-3
        assert cells[3] == "1"
