import itertools

import numpy as np
import pytest
from scipy import stats as sp_stats

from pvlc.compensation import PostDistortionConfig, post_distort
from pvlc.device import ModuleSpec, PVCellParams, module_voltage
from pvlc.link import (
    FEC_BER_THRESHOLD,
    GRAY,
    LEVELS,
    BerReport,
    DetectionError,
    LinkConfig,
    ac_couple,
    bits_to_levels,
    channel,
    decode_pam4,
    detect_pam4,
    encode_pam4,
    export_waveform_csv,
    receive,
    receive_levels,
    run_link,
    shot_noise_sigma,
    symbol_statistics,
    train_slicer,
    training_sequence,
    tx_waveform,
)
from pvlc.seeding import payload_bits

PARAMS = PVCellParams(n=1.5, i0=1e-10, eta=2e-9, temperature=300.0)
MODULE = ModuleSpec(cell_count=1, params=PARAMS)


def quiet_config(**overrides):
    base = dict(thermal_sigma_v=0.0, shot_noise_enabled=False, seed=1234)
    base.update(overrides)
    return LinkConfig(**base)


class TestMapping:
    def test_mapping_definition(self):
        assert encode_pam4([0, 0])[0] == -1.0
        assert encode_pam4([0, 1])[0] == pytest.approx(-1 / 3)
        assert encode_pam4([1, 1])[0] == pytest.approx(1 / 3)
        assert encode_pam4([1, 0])[0] == 1.0

    def test_round_trip_all_patterns(self):
        for bits in itertools.product([0, 1], repeat=2):
            assert decode_pam4(encode_pam4(list(bits))).tolist() == list(bits)

    def test_round_trip_long(self):
        bits = payload_bits(1000, 9)
        assert np.array_equal(decode_pam4(encode_pam4(bits)), bits)

    def test_gray_adjacency(self):
        # adjacent amplitude levels differ in exactly one bit
        for a, b in zip(GRAY[:-1], GRAY[1:]):
            assert bin(a ^ b).count("1") == 1

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            encode_pam4([0, 1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            encode_pam4([0, 2])


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

    def test_shot_sigma_high_lux_scaling(self):
        config = quiet_config(shot_noise_enabled=True)
        # deep in the eta*L >> i0 regime the RMS falls like 1/sqrt(L)
        ratio = shot_noise_sigma(4e6, MODULE, config) / shot_noise_sigma(1e6, MODULE, config)
        assert ratio == pytest.approx(0.5, rel=1e-3)

    def test_shot_sigma_peaks_at_knee(self):
        config = quiet_config(shot_noise_enabled=True)
        knee = PARAMS.i0 / PARAMS.eta
        around = shot_noise_sigma(np.array([knee / 4, knee, knee * 4]), MODULE, config)
        assert around[1] > around[0] and around[1] > around[2]

    def test_noise_variance_accounting(self):
        config = LinkConfig(thermal_sigma_v=2e-3, shot_noise_enabled=True, seed=5)
        rng = np.random.default_rng(77)
        lux = np.full(1_000_000, 425.0)
        v = receive(lux, MODULE, config, rng)
        measured = float(np.var(v - module_voltage(425.0, MODULE)))
        expected = config.thermal_sigma_v**2 + float(shot_noise_sigma(425.0, MODULE, config)) ** 2
        assert measured == pytest.approx(expected, rel=0.02)

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
        soft = quiet_config(lpf_cutoff_hz=sharp.symbol_rate / 4)
        tx = tx_waveform(symbols, sharp)
        v_sharp = receive(tx, MODULE, sharp, rng)
        v_soft = receive(tx, MODULE, soft, rng)
        assert np.ptp(v_soft) < np.ptp(v_sharp)

    def test_noise_added_after_filter(self):
        config = LinkConfig(thermal_sigma_v=1e-3, shot_noise_enabled=False, lpf_cutoff_hz=1e4, seed=2)
        rng = np.random.default_rng(3)
        lux = np.full(500_000, 425.0)
        v = receive(lux, MODULE, config, rng)
        # the filter never touches the noise, so the full RMS survives
        assert float(np.std(v)) == pytest.approx(1e-3, rel=0.02)


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
    def noiseless_stats(self, tx_dc, mod_index, config=None):
        config = config or quiet_config(tx_dc_lux=tx_dc, mod_index=mod_index)
        train = training_sequence(config)
        v = receive(channel(tx_waveform(LEVELS[train], config), config), MODULE, config, np.random.default_rng(0))
        stats = symbol_statistics(ac_couple(v), config.samples_per_symbol)
        centroids, thresholds = train_slicer(stats, train)
        return centroids, thresholds

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
        config = LinkConfig(seed=8, thermal_sigma_v=10.0, shot_noise_enabled=False)
        report = run_link(config, MODULE, payload_bits(40_000, 8))
        assert 0.4 < report.ber < 0.6

    def test_ber_report_counts(self):
        report = BerReport.from_counts(1000, 20)
        assert report.ber == 0.02
        assert not report.pass_fec   # threshold is exclusive

    def test_noise_matches_gaussian_q_prediction(self):
        """Measured BER agrees with the closed-form prediction for the
        trained thresholds within 3 standard errors over 1e6 bits."""
        config = LinkConfig(thermal_sigma_v=2.2e-3, shot_noise_enabled=False, seed=424242)
        n_symbols = 500_000
        payload = payload_bits(2 * n_symbols, config.seed)
        train = training_sequence(config)
        payload_levels = GRAY[2 * np.asarray(payload[0::2]) + np.asarray(payload[1::2])]

        rng = np.random.default_rng(config.seed)
        symbols = np.concatenate([LEVELS[train], LEVELS[payload_levels]])
        l_rx = channel(tx_waveform(symbols, config), config)
        noiseless = module_voltage(l_rx, MODULE)
        noisy = receive(l_rx, MODULE, config, rng)
        offset = noisy.mean()
        stats = symbol_statistics(noisy - offset, config.samples_per_symbol)
        _, thresholds = train_slicer(stats[: len(train)], train)
        decided = np.searchsorted(thresholds, stats[len(train):])
        # hamming weights: gray xor in {0,1,2,3} -> errored bits {0,1,1,2}
        xor = GRAY[decided] ^ GRAY[payload_levels]
        measured_errors = int(np.sum(np.array([0, 1, 1, 2])[xor]))

        # prediction: statistic is Gaussian around the noiseless centroid
        lo = config.samples_per_symbol // 4
        n_mid = config.samples_per_symbol - 2 * lo
        sigma_stat = config.thermal_sigma_v / np.sqrt(n_mid)
        stats0 = symbol_statistics(noiseless - offset, config.samples_per_symbol)[len(train):]
        centroids0 = np.array([stats0[payload_levels == k].mean() for k in range(4)])
        edges = np.concatenate([[-np.inf], thresholds, [np.inf]])
        weights = np.array([0, 1, 1, 2])
        expected_bits = 0.0
        variance = 0.0
        counts = np.bincount(payload_levels, minlength=4)
        for level in range(4):
            cell_probs = np.diff(sp_stats.norm.cdf(edges, loc=centroids0[level], scale=sigma_stat))
            h = weights[GRAY ^ GRAY[level]]
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


LEVEL_TABLE_CASES = [
    {},
    {"lpf_cutoff_hz": 2.5e5},
    {"ambient_lux": 40.0, "dcl_lux": 300.0},
    {"ambient_lux": 40.0, "dcl_lux": 300.0, "lpf_cutoff_hz": 2.5e5},
    {"shot_noise_enabled": False},
    {"shot_noise_enabled": False, "thermal_sigma_v": 0.0},
    {"shot_noise_enabled": False, "thermal_sigma_v": 0.0, "lpf_cutoff_hz": 2.5e5},
    {"samples_per_symbol": 2},
    {"samples_per_symbol": 3, "lpf_cutoff_hz": 2.5e5},
    {"samples_per_symbol": 8, "mod_index": 1.0},
    # level 0 receives no light: zero shot variance on that level only
    {"mod_index": 1.0, "thermal_sigma_v": 0.0},
]


class TestLevelTable:
    """run_link's per-level receiver against the samplewise pipeline."""

    def config(self, overrides):
        return LinkConfig(**{"tx_dc_lux": 200.0, "mod_index": 0.1, "seed": 31, **overrides})

    @pytest.mark.parametrize("overrides", LEVEL_TABLE_CASES)
    def test_waveform_bit_identical(self, overrides):
        config = self.config(overrides)
        payload = payload_bits(4000, 5)
        reference, _ = samplewise_pipeline(config, payload)
        levels = np.concatenate([training_sequence(config), bits_to_levels(payload)])
        gathered = receive_levels(levels, MODULE, config, np.random.default_rng(config.seed))
        assert np.array_equal(gathered, reference)

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


class TestExport:
    def test_waveform_csv(self, tmp_path):
        path = tmp_path / "wave.csv"
        export_waveform_csv(np.array([0.5, -0.25]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_index,value"
        assert lines[1].startswith("0,0.5")
        assert len(lines) == 3
