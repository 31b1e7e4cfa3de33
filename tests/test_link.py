import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import signal as sp_signal, stats as sp_stats

from pvlc import link
from pvlc.compensation import PostDistortionConfig, post_distort
from pvlc.device import ModuleSpec, PVCellParams, module_voltage
from pvlc.link import (
    _dibits,
    _single_pole_lowpass,
    _slice,
    BIT_RATE,
    BLOCK_SYMBOLS,
    FEC_BER_THRESHOLD,
    LEVELS,
    TIED_CENTROID_ULPS,
    BerReport,
    DetectionError,
    LinkConfig,
    ac_couple,
    bits_to_levels,
    channel,
    detect_pam4,
    encode_pam4,
    levels_to_bits,
    receive,
    run_link,
    shot_noise_sigma,
    simulate,
    symbol_statistics,
    train_slicer,
    training_sequence,
    tx_waveform,
)
from pvlc.seeding import payload_bits

PARAMS = PVCellParams(n=1.5, i0=1e-10, eta=2e-9, temperature=300.0)
MODULE = ModuleSpec(cell_count=1, params=PARAMS)


def quiet_config(**overrides):
    base = dict(thermal_sigma_v=0.0, noise_bandwidth_hz=0.0, seed=1234)
    base.update(overrides)
    return LinkConfig(**base)


class TestLinkConfig:
    @pytest.mark.parametrize("field", ["mod_index", "tx_dc_lux", "dcl_lux", "ambient_lux",
                                       "thermal_sigma_v", "noise_bandwidth_hz", "lpf_cutoff_hz"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 10**400], ids=["nan", "inf", "10**400"])
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a finite number")) as exc:
            LinkConfig(**{field: value})
        assert str(exc.value).endswith(f", got {value!r}")

    @pytest.mark.parametrize("field,value", [("mod_index", "0.3"), ("dcl_lux", None), ("ambient_lux", None),
                                             ("thermal_sigma_v", True), ("tx_dc_lux", [425.0])])
    def test_non_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a finite number")) as exc:
            LinkConfig(**{field: value})
        assert str(exc.value).endswith(f", got {value!r}")

    @pytest.mark.parametrize("field,value", [
        ("tx_dc_lux", 0), ("tx_dc_lux", -5.0), ("dcl_lux", -1e-3), ("ambient_lux", -1e-3),
        ("thermal_sigma_v", -1e-3), ("noise_bandwidth_hz", -1e-3), ("lpf_cutoff_hz", 0),
        ("mod_index", 0), ("mod_index", 1.5),
    ])
    def test_out_of_range_value_rejected(self, field, value):
        """Each range rule names the field and the value it rejected."""
        with pytest.raises(ValueError, match=f"^{field} must be ") as exc:
            LinkConfig(**{field: value})
        assert str(exc.value).endswith(f", got {value!r}")

    def test_bit_rate_is_not_a_field(self):
        """The bit rate is the constant BIT_RATE; lpf_cutoff_hz is the one bandwidth knob."""
        with pytest.raises(TypeError, match="bit_rate"):
            LinkConfig(bit_rate=1e6)
        assert LinkConfig(samples_per_symbol=4).sample_rate == BIT_RATE / 2.0 * 4

    def test_finite_values_accepted(self):
        config = LinkConfig(dcl_lux=2**70, ambient_lux=1e300, lpf_cutoff_hz=None)
        assert config.dcl_lux == 2**70 and config.lpf_cutoff_hz is None

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, np.bool_(False), 10**400])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            LinkConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, np.int64(3), 2**64 - 1])
    def test_seed_accepted(self, seed):
        assert LinkConfig(seed=seed).seed == seed

    @pytest.mark.parametrize("field,minimum", [("samples_per_symbol", 2), ("training_symbols", 64)])
    @pytest.mark.parametrize("value", [10**400, True, 8.0, "8", 1], ids=["10**400", "True", "8.0", "str", "1"])
    def test_sizes_must_be_integers_at_or_above_minimum(self, field, minimum, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer >= {minimum}, got {value!r}")):
            LinkConfig(**{field: value})


class TestMapping:
    def test_mapping_definition(self):
        assert encode_pam4([0, 0])[0] == -1.0
        assert encode_pam4([0, 1])[0] == pytest.approx(-1 / 3)
        assert encode_pam4([1, 1])[0] == pytest.approx(1 / 3)
        assert encode_pam4([1, 0])[0] == 1.0

    def test_round_trip_all_patterns(self):
        for bits in itertools.product([0, 1], repeat=2):
            assert levels_to_bits(bits_to_levels(list(bits))).tolist() == list(bits)

    def test_round_trip_long(self):
        bits = payload_bits(1000, 9)
        assert np.array_equal(levels_to_bits(bits_to_levels(bits)), bits)

    def test_gray_adjacency(self):
        # adjacent amplitude levels differ in exactly one bit
        codes = levels_to_bits(np.arange(4)).reshape(4, 2)
        assert (codes[1:] != codes[:-1]).sum(axis=1).tolist() == [1, 1, 1]

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            encode_pam4([0, 1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            encode_pam4([0, 2])

    @pytest.mark.parametrize("levels", [[1.7, 2.2], [True, False], [-1], [4], np.array([0, 3, 255], dtype=np.uint8)],
                             ids=["float", "bool", "-1", "4", "uint8-255"])
    def test_levels_to_bits_rejects(self, levels):
        # a cast would truncate 1.7 to 1 and wrap -1 to level 3
        with pytest.raises(ValueError, match="level indices must be integers in 0..3"):
            levels_to_bits(levels)

    def test_levels_to_bits_takes_every_integer_dtype(self):
        for dtype in (np.uint8, np.int8, np.int64, np.uint64):
            assert levels_to_bits(np.arange(4, dtype=dtype)).tolist() == [0, 0, 0, 1, 1, 1, 1, 0]


class TestCheckBits:
    """Integer and bool bits get a min/max check, other dtypes np.isin."""

    @pytest.mark.parametrize("bits", [
        np.array([0, 1, 1, 0]),
        np.array([0, 1, 1, 0], dtype=np.uint8),
        np.array([False, True, True, False]),
        np.array([0.0, 1.0, 1.0, 0.0]),
        [0, 1, 1, 0],
    ])
    def test_binary_accepted(self, bits):
        assert np.array_equal(bits_to_levels(bits), [1, 3])   # dibits 01 and 10

    @pytest.mark.parametrize("bits", [
        np.array([0, 2]),
        np.array([0, -1]),
        np.array([255, 0], dtype=np.uint8),
        np.array([0.0, 0.5]),
        np.array([0.0, np.nan]),
        np.array(["0", "1"]),
        np.array([b"0", b"1"]),
        np.array([None, 1], dtype=object),
    ])
    def test_non_binary_rejected(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            bits_to_levels(bits)
        with pytest.raises(ValueError, match="0 or 1"):
            run_link(quiet_config(), MODULE, bits)

    @pytest.mark.parametrize("bits", [np.array([0, 1, 1]), np.array([True]), np.array([1.0, 0.0, 1.0])])
    def test_odd_count_rejected(self, bits):
        with pytest.raises(ValueError, match="even"):
            bits_to_levels(bits)


class TestTxWaveform:
    def test_level_values(self):
        config = quiet_config(mod_index=0.3, tx_dc_lux=425.0, samples_per_symbol=2)
        wave = tx_waveform(np.array([1.0, -1.0]), config)
        assert wave[0] == pytest.approx(552.5)
        assert wave[2] == pytest.approx(297.5)

    def test_small_m_approaches_dc(self):
        config = quiet_config(mod_index=1e-9, tx_dc_lux=425.0)
        wave = tx_waveform(LEVELS, config)
        assert np.allclose(wave, 425.0, rtol=1e-8)

    def test_nonnegative_at_full_index(self):
        config = quiet_config(mod_index=1.0, tx_dc_lux=200.0)
        wave = tx_waveform(LEVELS, config)
        assert wave.min() >= 0.0

    def test_holds_samples_per_symbol(self):
        config = quiet_config(samples_per_symbol=8)
        wave = tx_waveform(np.array([1.0]), config)
        assert wave.shape == (8,)
        assert np.all(wave == wave[0])

    def test_mod_index_bounds(self):
        with pytest.raises(ValueError):
            quiet_config(mod_index=1.5)
        with pytest.raises(ValueError):
            quiet_config(mod_index=0.0)


class TestChannel:
    def test_identity_without_dc_sources(self):
        config = quiet_config()
        tx = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(channel(tx, config), tx)

    def test_constant_shift(self):
        config = quiet_config(dcl_lux=300.0, ambient_lux=25.0)
        tx = np.array([425.0, 552.5])
        assert np.allclose(channel(tx, config), tx + 325.0)

    def test_mean_arithmetic(self):
        config = quiet_config(dcl_lux=300.0)
        tx = np.full(1000, 425.0)
        assert channel(tx, config).mean() == pytest.approx(725.0)


class TestReceive:
    def test_noiseless_constant(self):
        config = quiet_config()
        rng = np.random.default_rng(0)
        lux = np.full(64, 425.0)
        v = receive(lux, MODULE, config, rng)
        assert np.all(v == module_voltage(425.0, MODULE))
        # a PAM4 NRZ waveform, with and without the low-pass: the drawn normals times 0 add +-0
        for lpf in (None, 2.5e5):
            config = quiet_config(lpf_cutoff_hz=lpf)
            l_rx = channel(tx_waveform(encode_pam4(payload_bits(2000, 4)), config), config)
            expected = module_voltage(l_rx, MODULE)
            if lpf is not None:
                sps = config.samples_per_symbol
                expected = _single_pole_lowpass(expected[::sps], sps, lpf, config.sample_rate)[0].ravel()
            v = receive(l_rx, MODULE, config, rng)
            assert np.array_equal(v.view(np.uint64), expected.view(np.uint64))   # bit for bit

    def test_shot_sigma_high_lux_scaling(self):
        config = LinkConfig()
        # deep in the eta*L >> i0 regime the RMS falls like 1/sqrt(L)
        ratio = shot_noise_sigma(4e6, MODULE, config) / shot_noise_sigma(1e6, MODULE, config)
        assert ratio == pytest.approx(0.5, rel=1e-3)

    def test_shot_sigma_peaks_at_knee(self):
        config = LinkConfig()
        knee = PARAMS.i0 / PARAMS.eta
        around = shot_noise_sigma(np.array([knee / 4, knee, knee * 4]), MODULE, config)
        assert around[1] > around[0] and around[1] > around[2]

    def test_noise_variance_accounting(self):
        lux = np.full(1_000_000, 425.0)
        for bandwidth in (LinkConfig().noise_bandwidth_hz, 0.0):   # 0 turns shot noise off
            config = LinkConfig(thermal_sigma_v=2e-3, noise_bandwidth_hz=bandwidth, seed=5)
            v = receive(lux, MODULE, config, np.random.default_rng(77))
            measured = float(np.var(v - module_voltage(425.0, MODULE)))
            shot_sigma = float(shot_noise_sigma(425.0, MODULE, config))
            assert measured == pytest.approx(config.thermal_sigma_v**2 + shot_sigma**2, rel=0.02)
        assert shot_sigma == 0.0

    def test_lowpass_dc_gain_unity(self):
        config = quiet_config(lpf_cutoff_hz=1e5)
        rng = np.random.default_rng(0)
        lux = np.full(4096, 425.0)
        v = receive(lux, MODULE, config, rng)
        assert np.allclose(v, module_voltage(425.0, MODULE), rtol=1e-9)

    def test_lowpass_attenuates_transitions(self):
        rng = np.random.default_rng(0)
        symbols = np.tile([1.0, -1.0], 64)
        sharp = quiet_config()
        soft = quiet_config(lpf_cutoff_hz=sharp.sample_rate / sharp.samples_per_symbol / 4)
        tx = tx_waveform(symbols, sharp)
        v_sharp = receive(tx, MODULE, sharp, rng)
        v_soft = receive(tx, MODULE, soft, rng)
        assert np.ptp(v_soft) < np.ptp(v_sharp)

    def test_noise_added_after_filter(self):
        config = LinkConfig(thermal_sigma_v=1e-3, noise_bandwidth_hz=0.0, lpf_cutoff_hz=1e4, seed=2)
        rng = np.random.default_rng(3)
        lux = np.full(500_000, 425.0)
        v = receive(lux, MODULE, config, rng)
        # the filter never touches the noise, so the full RMS survives
        assert float(np.std(v)) == pytest.approx(1e-3, rel=0.02)

    def test_lowpass_rejects_empty_input(self):
        with pytest.raises(ValueError, match="empty waveform"):
            receive(np.array([]), MODULE, quiet_config(lpf_cutoff_hz=2.5e5), np.random.default_rng(0))

    @pytest.mark.parametrize("lux", [np.full(12, 425.0), np.arange(400.0, 416.0)], ids=["partial-symbol", "not-nrz"])
    def test_lowpass_rejects_non_nrz_input(self, lux):
        """The symbol-rate filter needs whole symbols of equal samples; without it any samples pass."""
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="samples_per_symbol = 8"):
            receive(lux, MODULE, quiet_config(lpf_cutoff_hz=2.5e5), rng)
        assert np.array_equal(receive(lux, MODULE, quiet_config(), rng), module_voltage(lux, MODULE))


def sample_rate_lowpass(v, cutoff_hz, sample_rate):
    """The single-pole low-pass run on every sample, at rest at v[0]: the reference for the symbol-rate form."""
    alpha = 1.0 - math.exp(-2.0 * math.pi * cutoff_hz / sample_rate)
    return sp_signal.lfilter([alpha], [1.0, alpha - 1.0], v, zi=[(1.0 - alpha) * v[0]])[0]


class TestSymbolRateLowpass:
    """_single_pole_lowpass filters rectangular NRZ at the symbol rate; the reference filters every sample."""

    def symbol_voltages(self, symbols, seed):
        config = LinkConfig(mod_index=0.45)
        levels = np.random.default_rng(seed).integers(0, 4, symbols)
        return module_voltage(channel(config.tx_dc_lux * (1.0 + config.mod_index * LEVELS[levels]), config), MODULE)

    @pytest.mark.parametrize("sps", [2, 3, 8, 13, 20])
    @pytest.mark.parametrize("cutoff", [1e4, 2.5e5, 5e5, 2e6, 1e12])
    def test_matches_sample_rate_filter(self, cutoff, sps):
        """Within 4 ulps of the largest magnitude per unit of the filter's memory 1/(1 - beta).

        Each step of either recurrence rounds by about an ulp, and the
        filter carries an error for about 1/(1 - beta) samples, so a long
        memory lets the two drift further apart: at 1e4 Hz and 20 samples
        per symbol that memory is 160 samples.
        """
        x = self.symbol_voltages(5000, sps)
        sample_rate = BIT_RATE / 2 * sps
        y, _ = _single_pole_lowpass(x, sps, cutoff, sample_rate)
        reference = sample_rate_lowpass(np.repeat(x, sps), cutoff, sample_rate)
        beta = math.exp(-2.0 * math.pi * cutoff / sample_rate)
        assert y.shape == (x.size, sps)
        assert np.abs(y.ravel() - reference).max() <= 4 * np.spacing(np.abs(reference).max()) / (1.0 - beta)

    @pytest.mark.parametrize("sps", [2, 8, 13])
    def test_state_carried_across_blocks(self, sps):
        """Block by block through one reused buffer, as simulate filters, gives one whole call's bits."""
        x = self.symbol_voltages(2 * BLOCK_SYMBOLS + 1000, sps)
        sample_rate = BIT_RATE / 2 * sps
        whole, _ = _single_pole_lowpass(x, sps, 2.5e5, sample_rate)
        buffer = np.empty((sps, BLOCK_SYMBOLS)).T
        state = None
        for start in range(0, x.size, BLOCK_SYMBOLS):
            chunk = x[start:start + BLOCK_SYMBOLS]
            block, state = _single_pole_lowpass(chunk, sps, 2.5e5, sample_rate, state, buffer[: chunk.size])
            assert np.shares_memory(block, buffer)
            assert np.array_equal(block.view(np.uint64), whole[start:start + BLOCK_SYMBOLS].view(np.uint64))

    @pytest.mark.parametrize("lux,m,cutoff,sps", itertools.product((200.0, 650.0), (0.1, 0.3, 0.45),
                                                                   (2.5e5, 2e6), (4, 13)))
    def test_error_counts_match_sample_rate_pipeline(self, lux, m, cutoff, sps):
        """Plain and post-distorted counts equal a pipeline that filters every sample and draws the same normals."""
        config = LinkConfig(tx_dc_lux=lux, mod_index=m, lpf_cutoff_hz=cutoff, samples_per_symbol=sps, seed=sps)
        payload = payload_bits(2 * (BLOCK_SYMBOLS + 1000), 14)
        cfg = PostDistortionConfig(operating_lux=lux)
        train = training_sequence(config)
        l_rx = channel(tx_waveform(np.concatenate([LEVELS[train], encode_pam4(payload)]), config), config)
        v = sample_rate_lowpass(module_voltage(l_rx, MODULE), cutoff, config.sample_rate)
        variance = config.thermal_sigma_v**2 + shot_noise_sigma(l_rx, MODULE, config) ** 2
        v_ac = ac_couple(v + np.random.default_rng(config.seed).standard_normal(l_rx.size) * np.sqrt(variance))
        expected = [int(np.count_nonzero(detect_pam4(w, config, train) != payload))
                    for w in (v_ac, post_distort(v_ac, MODULE, cfg))]
        assert [trace.report.bits_errored for trace in simulate(config, MODULE, payload, (None, cfg))] == expected


class TestAcCouple:
    def test_constant_becomes_zero(self):
        assert np.all(ac_couple(np.full(10, 3.3)) == 0.0)

    def test_zero_mean(self):
        rng = np.random.default_rng(1)
        v = rng.normal(2.0, 1.0, 10_000)
        out = ac_couple(v)
        assert abs(out.mean()) < 1e-12 * np.sqrt(np.mean(v**2))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        v = rng.normal(5.0, 1.0, 1000)
        once = ac_couple(v)
        assert np.allclose(ac_couple(once), once, atol=1e-18)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ac_couple(np.array([]))


class TestDetection:
    def noiseless_stats(self, tx_dc, mod_index):
        config = quiet_config(tx_dc_lux=tx_dc, mod_index=mod_index)
        (trace,) = simulate(config, MODULE, payload_bits(512, 0))
        return trace.centroids, trace.thresholds

    def test_centroid_compression_at_low_lux(self):
        centroids, _ = self.noiseless_stats(250.0, 0.3)
        gaps = np.diff(centroids)
        assert gaps[2] < gaps[0]

    def test_centroids_strictly_ordered(self):
        for tx in [50.0, 250.0, 1250.0]:
            centroids, _ = self.noiseless_stats(tx, 0.3)
            assert np.all(np.diff(centroids) > 0)

    def test_training_must_cover_levels(self):
        config = quiet_config()
        levels = np.zeros(config.training_symbols, dtype=int)
        stats = np.zeros(config.training_symbols)
        with pytest.raises(DetectionError):
            train_slicer(stats, levels)

    def test_noiseless_detection_error_free(self):
        config = quiet_config(tx_dc_lux=250.0, mod_index=0.3)
        bits = payload_bits(2000, 7)
        report = run_link(config, MODULE, bits)
        assert report.bits_errored == 0

    @pytest.mark.parametrize("tx_dc,m", [(20.0, 0.9), (250.0, 1.0), (425.0, 0.3), (1250.0, 0.05)])
    def test_noiseless_error_free_everywhere(self, tx_dc, m):
        config = quiet_config(tx_dc_lux=tx_dc, mod_index=m)
        report = run_link(config, MODULE, payload_bits(2000, 3))
        assert report.ber == 0.0

    def test_waveform_length_validated(self):
        config = quiet_config()
        with pytest.raises(ValueError):
            detect_pam4(np.zeros(config.samples_per_symbol + 1), config, training_sequence(config))


class TestSymbolStatistics:
    """symbol_statistics sums the central columns left to right; numpy's mean sums 8 or more pairwise."""

    def received(self, sps):
        config = LinkConfig(samples_per_symbol=sps, seed=sps)
        l_rx = channel(tx_waveform(encode_pam4(payload_bits(4000, sps)), config), config)
        return receive(l_rx, MODULE, config, np.random.default_rng(sps))

    def numpy_mean(self, v, sps):
        lo = sps // 4
        return v.reshape(-1, sps)[:, lo : sps - lo].mean(axis=1)

    @pytest.mark.parametrize("sps", range(2, 14))
    def test_equals_numpy_mean_below_8_central_samples(self, sps):
        for v in (self.received(sps), ac_couple(self.received(sps))):
            assert np.array_equal(symbol_statistics(v, sps), self.numpy_mean(v, sps))

    @pytest.mark.parametrize("sps", [14, 16, 32, 64])
    def test_close_to_numpy_mean_for_wider_windows(self, sps):
        v = self.received(sps)
        np.testing.assert_allclose(symbol_statistics(v, sps), self.numpy_mean(v, sps), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("sps", [1, 0, 2.0, True, 10**400])
    def test_samples_per_symbol_validated(self, sps):
        with pytest.raises(ValueError, match="samples_per_symbol"):
            symbol_statistics(np.zeros(8), sps)


class TestRunLink:
    def test_deterministic(self):
        config = LinkConfig(seed=99)
        bits = payload_bits(20_000, 99)
        assert run_link(config, MODULE, bits) == run_link(config, MODULE, bits)

    def test_seed_changes_noise(self):
        bits = payload_bits(20_000, 1)
        a = run_link(LinkConfig(seed=1, thermal_sigma_v=3e-3), MODULE, bits)
        b = run_link(LinkConfig(seed=2, thermal_sigma_v=3e-3), MODULE, bits)
        assert a != b

    def test_report_invariants(self):
        config = LinkConfig(seed=4, thermal_sigma_v=2.5e-3)
        report = run_link(config, MODULE, payload_bits(50_000, 4))
        assert report.ber == report.bits_errored / report.bits_total
        assert report.pass_fec == (report.ber < FEC_BER_THRESHOLD)

    def test_random_guess_ceiling(self):
        config = LinkConfig(seed=8, thermal_sigma_v=10.0, noise_bandwidth_hz=0.0)
        report = run_link(config, MODULE, payload_bits(40_000, 8))
        assert 0.4 < report.ber < 0.6

    def test_ber_report_counts(self):
        report = BerReport(1000, 20)
        assert report.ber == 0.02
        assert not report.pass_fec   # threshold is exclusive
        assert BerReport(999, 19).pass_fec
        numpy_counts = BerReport(np.int64(10), np.int64(10))
        assert numpy_counts == BerReport(10, 10)
        assert dataclasses.asdict(numpy_counts) == {"bits_total": 10, "bits_errored": 10, "ber": 1.0, "pass_fec": False}
        assert type(numpy_counts.bits_total) is int and type(numpy_counts.bits_errored) is int

    def test_ber_and_pass_fec_are_derived(self):
        with pytest.raises(TypeError):
            BerReport(10, 11, 0.5, True)

    @pytest.mark.parametrize("counts,match", [
        ((10, 11), "bits_errored must be <= bits_total"), ((10, -1), "bits_errored must be an integer >= 0"),
        ((10.5, 1), "bits_total must be an integer >= 1"), ((True, 0), "bits_total must be an integer >= 1"),
        ((0, 0), "bits_total must be an integer >= 1"), ((10, 1.0), "bits_errored must be an integer >= 0"),
        ((10, False), "bits_errored must be an integer >= 0"), ((-10, 0), "bits_total must be an integer >= 1"),
    ])
    def test_ber_report_rejects_impossible_counts(self, counts, match):
        with pytest.raises(ValueError, match=match):
            BerReport(*counts)

    def test_noise_matches_gaussian_q_prediction(self):
        """Measured BER agrees with the closed-form prediction for the
        trained thresholds within 3 standard errors over 1e6 bits."""
        config = LinkConfig(thermal_sigma_v=2.2e-3, noise_bandwidth_hz=0.0, seed=424242)
        n_symbols = 500_000
        payload = payload_bits(2 * n_symbols, config.seed)
        train = training_sequence(config)
        payload_levels = bits_to_levels(payload)

        rng = np.random.default_rng(config.seed)
        symbols = np.concatenate([LEVELS[train], LEVELS[payload_levels]])
        l_rx = channel(tx_waveform(symbols, config), config)
        noiseless = module_voltage(l_rx, MODULE)
        noisy = receive(l_rx, MODULE, config, rng)
        offset = noisy.mean()
        stats = symbol_statistics(noisy - offset, config.samples_per_symbol)
        _, thresholds = train_slicer(stats[: len(train)], train)
        decided = np.searchsorted(thresholds, stats[len(train):])
        measured_errors = int(np.count_nonzero(levels_to_bits(decided) != payload))

        # prediction: statistic is Gaussian around the noiseless centroid
        lo = config.samples_per_symbol // 4
        n_mid = config.samples_per_symbol - 2 * lo
        sigma_stat = config.thermal_sigma_v / np.sqrt(n_mid)
        stats0 = symbol_statistics(noiseless - offset, config.samples_per_symbol)[len(train):]
        centroids0 = np.array([stats0[payload_levels == k].mean() for k in range(4)])
        edges = np.concatenate([[-np.inf], thresholds, [np.inf]])
        codes = levels_to_bits(np.arange(4)).reshape(4, 2)   # the dibit each level carries
        expected_bits = 0.0
        variance = 0.0
        counts = np.bincount(payload_levels, minlength=4)
        for level in range(4):
            cell_probs = np.diff(sp_stats.norm.cdf(edges, loc=centroids0[level], scale=sigma_stat))
            h = (codes != codes[level]).sum(axis=1)   # bits lost deciding each level
            mean_err = float(cell_probs @ h)
            expected_bits += counts[level] * mean_err
            variance += counts[level] * (float(cell_probs @ h**2) - mean_err**2)
        tolerance = 3.0 * np.sqrt(variance)
        assert abs(measured_errors - expected_bits) <= tolerance


def samplewise_pipeline(config, payload, postprocess=None):
    """run_link built by hand from the public per-sample stages.

    Returns the received waveform (before AC coupling) and the payload
    bit-error count.
    """
    train = training_sequence(config)
    symbols = np.concatenate([LEVELS[train], encode_pam4(payload)])
    l_rx = channel(tx_waveform(symbols, config), config)
    received = receive(l_rx, MODULE, config, np.random.default_rng(config.seed))
    v = ac_couple(received)
    if postprocess is not None:
        v = postprocess(v)
    errors = int(np.count_nonzero(detect_pam4(v, config, train) != payload))
    return received, errors


def blocked_mean(received, samples_per_symbol):
    """simulate's mu: the sums of BLOCK_SYMBOLS-symbol blocks, added in order, over the sample count."""
    size = BLOCK_SYMBOLS * samples_per_symbol
    total = 0.0
    for start in range(0, received.size, size):
        total += received[start:start + size].sum()
    return total / received.size


LEVEL_TABLE_CASES = [
    {},
    {"lpf_cutoff_hz": 2.5e5},
    {"ambient_lux": 40.0, "dcl_lux": 300.0},
    {"ambient_lux": 40.0, "dcl_lux": 300.0, "lpf_cutoff_hz": 2.5e5},
    {"noise_bandwidth_hz": 0.0},
    {"noise_bandwidth_hz": 0.0, "thermal_sigma_v": 0.0},
    {"noise_bandwidth_hz": 0.0, "thermal_sigma_v": 0.0, "lpf_cutoff_hz": 2.5e5},
    {"samples_per_symbol": 2},
    {"samples_per_symbol": 3, "lpf_cutoff_hz": 2.5e5},
    {"samples_per_symbol": 8, "mod_index": 1.0},
    # level 0 receives no light: zero shot variance on that level only
    {"mod_index": 1.0, "thermal_sigma_v": 0.0},
    {"samples_per_symbol": 2, "lpf_cutoff_hz": 2.5e5},
    {"samples_per_symbol": 3},
    {"samples_per_symbol": 3, "noise_bandwidth_hz": 0.0, "thermal_sigma_v": 0.0},
    # 8 central samples or more: numpy's mean sums them pairwise
    {"samples_per_symbol": 16},
    {"samples_per_symbol": 20, "lpf_cutoff_hz": 2.5e5},
]


class TestLevelTable:
    """run_link's per-level receiver against the samplewise pipeline."""

    def config(self, overrides):
        return LinkConfig(**{"tx_dc_lux": 200.0, "mod_index": 0.1, "seed": 31, **overrides})

    @pytest.mark.parametrize("overrides", LEVEL_TABLE_CASES)
    def test_waveform_bit_identical(self, overrides):
        """Over two full blocks and a partial one, so the low-pass must carry its state across blocks."""
        config = self.config(overrides)
        payload = payload_bits(2 * (2 * BLOCK_SYMBOLS + 1000), 5)
        received, _ = samplewise_pipeline(config, payload)
        mu = blocked_mean(received, config.samples_per_symbol)
        assert np.array_equal(simulate(config, MODULE, payload, (lambda v: v,))[0].v, received - mu)

    @pytest.mark.parametrize("overrides", LEVEL_TABLE_CASES)
    def test_error_count_identical(self, overrides):
        config = self.config(overrides)
        payload = payload_bits(40_000, 6)
        _, errors = samplewise_pipeline(config, payload)
        report = run_link(config, MODULE, payload)
        assert report.bits_errored == errors
        assert report.bits_total == payload.size

    @pytest.mark.parametrize("lpf", [None, 2.5e5])
    def test_error_count_identical_with_postprocess(self, lpf):
        config = self.config({"mod_index": 0.2, "lpf_cutoff_hz": lpf})
        payload = payload_bits(40_000, 7)
        cfg = PostDistortionConfig(operating_lux=config.tx_dc_lux, gain_cap=4.0)
        postprocess = lambda v: post_distort(v, MODULE, cfg)  # noqa: E731
        _, errors = samplewise_pipeline(config, payload, postprocess)
        assert errors > 0
        assert run_link(config, MODULE, payload, postprocess=postprocess).bits_errored == errors

    def test_run_link_checks_bits(self):
        with pytest.raises(ValueError, match="even"):
            run_link(quiet_config(), MODULE, [0, 1, 1])
        with pytest.raises(ValueError, match="0 or 1"):
            run_link(quiet_config(), MODULE, [0, 2])

    @pytest.mark.parametrize("symbols", [2256, BLOCK_SYMBOLS - 1, BLOCK_SYMBOLS, BLOCK_SYMBOLS + 1,
                                         2 * BLOCK_SYMBOLS])
    @pytest.mark.parametrize("overrides", LEVEL_TABLE_CASES)
    def test_fused_statistics_bit_identical(self, overrides, symbols):
        """simulate's block-wise statistics, mu and slicer equal the public stages.

        The cell's symbol count, training included, sits below, at and above
        block edges.  The plain receiver alone reuses one block buffer; beside
        a PostDistortionConfig entry the cell keeps the whole waveform, and
        the entry's statistics agree with `post_distort` of it to 1e-12 of
        their largest magnitude.
        """
        config = self.config(overrides)
        sps = config.samples_per_symbol
        train = training_sequence(config)
        payload = payload_bits(2 * (symbols - train.size), 8)
        received, _ = samplewise_pipeline(config, payload)
        mu = blocked_mean(received, sps)
        stats = symbol_statistics(received, sps)
        stats -= mu
        centroids, thresholds = train_slicer(stats[: len(train)], train)
        cfg = PostDistortionConfig(operating_lux=config.tx_dc_lux)
        for receivers in [(None,), (None, cfg)]:
            traces = simulate(config, MODULE, payload, receivers)
            trace = traces[0]
            assert np.array_equal(trace.stats, stats)
            assert np.array_equal(trace.centroids, centroids)
            assert np.array_equal(trace.thresholds, thresholds)
            assert np.array_equal(trace.detected, _slice(stats, train)[2])
        compensated = symbol_statistics(post_distort(received - mu, MODULE, cfg), sps)
        assert np.abs(traces[1].stats - compensated).max() <= 1e-12 * np.abs(compensated).max()   # the last run's entry


class TestTiedCentroids:
    """Centroids equal up to rounding are one level, so which way the rounding falls decides nothing."""

    @pytest.mark.parametrize("upper", [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)])
    def test_tied_levels_decide_the_lower_index(self, upper):
        train = training_sequence(LinkConfig())
        stats = np.array([-1.0, 0.0, 1.0, upper])[train]
        payload = np.array([-1.0, 0.0, 0.6, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.5])
        _, _, detected = _slice(np.concatenate([stats, payload]), train)
        assert detected.tolist() == [0, 1, 2, 2, 2, 2, 2]


class TestReceiverList:
    """The receiver list alone decides what a cell keeps, and no entry changes another's decisions."""

    @pytest.mark.parametrize("overrides", LEVEL_TABLE_CASES)
    def test_plain_trace_independent_of_other_receivers(self, overrides):
        """A plain entry beside an identity, a PostDistortionConfig or a callable post_distort (the
        eye's and the sweeps' receivers) decides as the plain-only run, bit for bit."""
        config = LinkConfig(**{"tx_dc_lux": 200.0, "mod_index": 0.1, "seed": 32, **overrides})
        payload = payload_bits(2 * (BLOCK_SYMBOLS + 500), 10)
        cfg = PostDistortionConfig(config.tx_dc_lux + config.dcl_lux + config.ambient_lux, gain_cap=4.0)
        (alone,) = simulate(config, MODULE, payload)
        assert alone.v is None
        assert not alone.stats.flags.writeable   # shared by every plain entry
        for others in [(lambda v: v,), (cfg,), (lambda v: post_distort(v, MODULE, cfg),)]:
            plain, other = simulate(config, MODULE, payload, (None, *others))
            assert plain.v is None
            for field in ("stats", "centroids", "thresholds", "detected"):
                assert np.array_equal(getattr(alone, field), getattr(plain, field)), field
            assert alone.report == plain.report

    @pytest.mark.parametrize("overrides", LEVEL_TABLE_CASES)
    def test_identity_returns_the_read_only_waveform(self, overrides):
        """The identity postprocess hands out the AC-coupled waveform, and decides as the plain receiver."""
        config = LinkConfig(**{"tx_dc_lux": 200.0, "mod_index": 0.1, "seed": 32, **overrides})
        payload = payload_bits(2 * (BLOCK_SYMBOLS + 500), 10)
        plain, identity = simulate(config, MODULE, payload, (None, lambda v: v))
        assert identity.v.size == (config.training_symbols + payload.size // 2) * config.samples_per_symbol
        assert not identity.v.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            identity.v[0] = 0.0
        assert identity.report == plain.report
        assert np.array_equal(identity.detected, plain.detected)

    @pytest.mark.parametrize("receivers", [(None,), (lambda v: v,)], ids=["plain", "identity"])
    def test_unindexable_samples_per_symbol_rejected(self, receivers):
        """A size numpy cannot allocate fails naming the field, before any array is built."""
        config = LinkConfig(samples_per_symbol=10**30)
        with pytest.raises(ValueError, match="samples_per_symbol 10{30} is too large"):
            simulate(config, MODULE, payload_bits(20, 1), receivers)
        # a numpy integer too: the size is checked in Python ints, which do not overflow
        config = LinkConfig(samples_per_symbol=np.int64(2**62))
        with pytest.raises(ValueError, match=f"samples_per_symbol {2**62} is too large"):
            simulate(config, MODULE, payload_bits(20, 1), receivers)
        # here the block buffer alone is beyond numpy's limit
        config = LinkConfig(samples_per_symbol=np.iinfo(np.intp).max // (8 * BLOCK_SYMBOLS) + 1)
        with pytest.raises(ValueError, match="samples_per_symbol .* is too large"):
            run_link(config, MODULE, payload_bits(2 * BLOCK_SYMBOLS, 1))


class TestPostDistortionEntry:
    """A PostDistortionConfig entry slices statistics taken block by block, as the callable post_distort decides."""

    @pytest.mark.parametrize("symbols", [2 * BLOCK_SYMBOLS + 1256, 2 * BLOCK_SYMBOLS])
    @pytest.mark.parametrize("gain_cap", [4.0, math.inf])
    @pytest.mark.parametrize("lpf", [None, 5e5], ids=["lpf-as-listed", "lpf-5e5"])
    @pytest.mark.parametrize("overrides", LEVEL_TABLE_CASES)
    def test_equals_callable_post_distort(self, overrides, lpf, gain_cap, symbols):
        """Over two full blocks and a partial one, or exactly two (training included); the statistics
        agree to 1e-12 of their largest magnitude.

        At mod_index 1 the gain cap clips levels 1 to 3 (2 and 3 with the
        low-pass) to one value, so their trained centroids coincide up to
        each path's rounding; the slicer decides tied centroids alike.
        """
        overrides = {**overrides, "lpf_cutoff_hz": lpf} if lpf else overrides
        config = LinkConfig(**{"tx_dc_lux": 200.0, "mod_index": 0.1, "seed": 33, **overrides})
        payload = payload_bits(2 * (symbols - config.training_symbols), 12)
        cfg = PostDistortionConfig(config.tx_dc_lux + config.dcl_lux + config.ambient_lux, gain_cap)
        (alone,) = simulate(config, MODULE, payload)
        _, called = simulate(config, MODULE, payload, (None, lambda v: post_distort(v, MODULE, cfg)))
        plain, entry = simulate(config, MODULE, payload, (None, cfg))
        tolerance = 1e-12 * np.abs(called.stats).max()
        assert entry.v is None
        assert np.abs(entry.stats - called.stats).max() <= tolerance
        assert entry.report == called.report
        assert np.array_equal(entry.detected, called.detected)
        assert plain.v is None
        for field in ("stats", "centroids", "thresholds", "detected"):
            assert np.array_equal(getattr(plain, field), getattr(alone, field)), field
        assert plain.report == alone.report

    @pytest.mark.parametrize("lpf", [None, 5e5])
    def test_trace_independent_of_other_receivers(self, lpf):
        """The entry reads the raw waveform before simulate AC-couples it for a callable."""
        config = LinkConfig(tx_dc_lux=350.0, mod_index=0.2, lpf_cutoff_hz=lpf, seed=44)
        payload = payload_bits(2 * (BLOCK_SYMBOLS + 500), 14)
        cfg = PostDistortionConfig(operating_lux=350.0)
        post = lambda v: post_distort(v, MODULE, cfg)  # noqa: E731
        (alone,) = simulate(config, MODULE, payload, (cfg,))
        traces = [simulate(config, MODULE, payload, (post, cfg))[1], simulate(config, MODULE, payload, (cfg, post))[0],
                  simulate(config, MODULE, payload, (lambda v: v, cfg))[1]]
        for trace in traces:
            assert trace.v is None
            for field in ("stats", "centroids", "thresholds", "detected"):
                assert np.array_equal(getattr(trace, field), getattr(alone, field)), field
            assert trace.report == alone.report

    def test_run_link_takes_the_entry(self):
        config = LinkConfig(tx_dc_lux=350.0, mod_index=0.2, lpf_cutoff_hz=5e5, seed=43)
        payload = payload_bits(40_000, 13)
        cfg = PostDistortionConfig(operating_lux=350.0)
        report = run_link(config, MODULE, payload, postprocess=cfg)
        assert report.bits_errored > 0
        assert report == run_link(config, MODULE, payload, postprocess=lambda v: post_distort(v, MODULE, cfg))

    @pytest.mark.parametrize("entry", [3, "post_distort", (None,), PARAMS])
    def test_bad_entry_rejected_before_any_work(self, entry, monkeypatch):
        def no_work(*args):
            raise AssertionError("the waveform was built")

        monkeypatch.setattr(link, "_received", no_work)
        with pytest.raises(TypeError, match=re.escape(f"got {entry!r}")):
            simulate(LinkConfig(), MODULE, payload_bits(20, 1), (None, entry))


class TestSharedRealization:
    """simulate slices one waveform for the plain and the post-processed receivers."""

    @pytest.mark.parametrize("lpf", [None, 2.5e5])
    def test_entries_equal_separate_runs(self, lpf):
        config = LinkConfig(tx_dc_lux=350.0, mod_index=0.2, lpf_cutoff_hz=lpf, seed=41)
        payload = payload_bits(40_000, 9)
        cfg = PostDistortionConfig(operating_lux=350.0, gain_cap=4.0)
        post = lambda v: post_distort(v, MODULE, cfg)  # noqa: E731
        plain, compensated, again = (t.report for t in simulate(config, MODULE, payload, (None, post, None)))
        assert plain == again == run_link(config, MODULE, payload)
        assert compensated == run_link(config, MODULE, payload, postprocess=post)
        assert plain.bits_errored > 0 and compensated.bits_errored > 0
        assert [t.report for t in simulate(config, MODULE, payload, (post, post))] == [compensated, compensated]

    def test_shared_waveform_is_read_only(self):
        def in_place(v):
            v *= 2.0
            return v

        # a postprocess returns a new array, whatever the receiver list, so
        # no entry can change the waveform another entry reads
        for postprocesses in [(in_place,), (in_place, in_place), (None, in_place)]:
            with pytest.raises(ValueError, match="read-only"):
                simulate(quiet_config(), MODULE, payload_bits(2000, 1), postprocesses)


class TestSymbolMemory:
    """Symbol-rate integers are uint8, so a cell holds little beyond its float64 waveforms."""

    def test_symbol_arrays_are_uint8(self):
        config = LinkConfig(seed=2)
        payload = payload_bits(2000, 2)
        assert bits_to_levels(payload).dtype == np.uint8
        assert training_sequence(config).dtype == np.uint8
        assert simulate(config, MODULE, payload)[0].detected.dtype == np.uint8

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=200), st.sampled_from([np.int64, np.uint8, bool, float]))
    def test_dibits_match_int64_formula(self, bits, dtype):
        b = np.array(bits[: len(bits) // 2 * 2], dtype=np.int64)
        dibits = 2 * b[0::2] + b[1::2]
        assert _dibits(b).dtype == np.uint8
        assert np.array_equal(_dibits(b), dibits)
        assert np.array_equal(bits_to_levels(b.astype(dtype)), np.array([0, 1, 3, 2])[dibits])

    @pytest.mark.parametrize("second,lpf,budget", [
        (None, None, 0.35), ("callable", None, 2.5), (None, 5e5, 0.5), ("config", None, 1.5), ("config", 5e5, 1.5),
    ], ids=["plain", "plain+post", "plain-lpf", "plain+postcfg", "plain+postcfg-lpf"])
    def test_peak_memory_within_budget(self, second, lpf, budget):
        """tracemalloc peak of one cell at 50 000 payload symbols, in waveform bytes.

        A plain cell builds no waveform (measured 0.29x, 0.39x with the
        low-pass).  A pair with a PostDistortionConfig entry holds the
        waveform and one scratch block (1.365x, with or without the
        low-pass); with a callable post_distort, the waveform and its
        compensated copy (2.36x).
        """
        config = LinkConfig(seed=3, lpf_cutoff_hz=lpf)
        payload = payload_bits(100_000, 3)   # built before tracing: the sweeps share it
        cfg = PostDistortionConfig(operating_lux=config.tx_dc_lux, gain_cap=4.0)
        receivers = {None: (None,), "config": (None, cfg), "callable": (None, lambda v: post_distort(v, MODULE, cfg))}
        tracemalloc.start()
        try:
            simulate(config, MODULE, payload, receivers[second])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        waveform_bytes = (config.training_symbols + payload.size // 2) * config.samples_per_symbol * 8
        assert peak <= budget * waveform_bytes


# Statistics of magnitude 0 or >= 1e-6: sums and power-of-two scales of
# them never reach the subnormal range, where scaling would round.
MAGNITUDES = st.floats(1e-6, 1e3)
STATISTIC = st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda f: -f))
CENTROIDS = st.lists(STATISTIC, min_size=4, max_size=4)
PAYLOAD = st.lists(STATISTIC, min_size=1, max_size=64)


def slice_at(centroids, payload):
    """Payload decisions of a slicer trained on one symbol per level, so its centroids are exact."""
    return _slice(np.concatenate([centroids, payload]), np.arange(4))[2]


class TestSlicerProperties:
    @settings(deadline=None)
    @given(CENTROIDS, PAYLOAD)
    def test_nearest_centroid(self, centroids, payload):
        centroids, payload = np.array(centroids), np.array(payload)
        distance = np.abs(payload[:, None] - centroids)
        nearest = np.sort(distance, axis=1)
        # equidistant symbols (up to the rounding of a midpoint) may go either way
        decided = nearest[:, 1] - nearest[:, 0] > 1e-9
        assume(decided.any())
        detected = slice_at(centroids, payload)
        assert np.array_equal(detected[decided], np.argmin(distance, axis=1)[decided])

    @settings(deadline=None)
    @given(CENTROIDS, PAYLOAD)
    def test_sorted_centroids_match_binary_search(self, centroids, payload):
        """Ascending centroids: the rank found by binary search, or the lowest rank it is tied with."""
        centroids = np.sort(centroids)
        _, thresholds, detected = _slice(np.concatenate([centroids, payload]), np.arange(4))
        assert np.array_equal(thresholds, 0.5 * (centroids[:-1] + centroids[1:]))
        tied = np.diff(centroids) <= TIED_CENTROID_ULPS * np.spacing(np.abs(centroids).max())
        lowest = np.maximum.accumulate(np.where(np.concatenate(([True], ~tied)), np.arange(4), 0))
        assert np.array_equal(detected, lowest[np.searchsorted(thresholds, payload)])

    @settings(deadline=None)
    @given(st.lists(STATISTIC, min_size=64, max_size=64), PAYLOAD, st.integers(-20, 20))
    def test_power_of_two_scale_invariant(self, training, payload, exponent):
        stats = np.array(training + payload)
        train = np.tile(np.arange(4), 16)
        assert np.array_equal(_slice(stats * 2.0**exponent, train)[2], _slice(stats, train)[2])

    @settings(deadline=None)
    @given(st.lists(STATISTIC, min_size=64, max_size=64), PAYLOAD, STATISTIC)
    def test_shift_invariant_away_from_thresholds(self, training, payload, shift):
        stats = np.array(training + payload)
        train = np.tile(np.arange(4), 16)
        centroids, thresholds, detected = _slice(stats, train)
        shifted = _slice(stats + shift, train)[2]
        # Shifting rounds each statistic, and the centroids (means of 16) and
        # thresholds built from them, by some ulps of the largest magnitude
        # involved: only symbols and centroid gaps wider than a margin of 64
        # such ulps must keep their decision.
        margin = 64 * np.spacing(max(np.abs(stats).max(), abs(shift)))
        clear = np.abs(stats[64:, None] - thresholds).min(axis=1) > margin
        if np.diff(np.sort(centroids)).min() > margin:
            assert np.array_equal(shifted[clear], detected[clear])

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_gray_round_trip(self, bits):
        bits = bits[: len(bits) // 2 * 2]
        assert levels_to_bits(bits_to_levels(bits)).tolist() == bits
