import math

import numpy as np
import pytest

from pvlc.compensation import PostDistortionConfig, affine_tail, clip_bounds, invert_clipped, post_distort
from pvlc.device import ModuleSpec, PVCellParams, first_derivative, module_voltage
from pvlc.link import LinkConfig, ac_couple, simulate
from pvlc.seeding import payload_bits

PARAMS = PVCellParams(n=1.5, i0=1e-10, eta=2e-9, temperature=300.0)
MODULE = ModuleSpec(cell_count=1, params=PARAMS)


class TestPostDistort:
    def test_zero_waveform_fixed_point(self):
        cfg = PostDistortionConfig(operating_lux=350.0)
        out = post_distort(np.zeros(64), MODULE, cfg)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_perfect_inversion_recovers_shape(self):
        rng = np.random.default_rng(0)
        wiggle = rng.uniform(-100.0, 100.0, 512)
        wiggle -= wiggle.mean()
        lux = 350.0 + wiggle
        v_ac = ac_couple(module_voltage(lux, MODULE))
        cfg = PostDistortionConfig(operating_lux=350.0, gain_cap=math.inf)
        out = post_distort(v_ac, MODULE, cfg)
        target = wiggle * first_derivative(350.0, MODULE)
        scale = float(out @ target) / float(target @ target)
        assert np.allclose(out, scale * target, rtol=0, atol=1e-9 * np.max(np.abs(out)))

    def test_noiseless_pam4_gaps_equalized(self):
        config = LinkConfig(tx_dc_lux=350.0, mod_index=0.3, thermal_sigma_v=0.0,
                            noise_bandwidth_hz=0.0, seed=0)
        cfg = PostDistortionConfig(operating_lux=350.0, gain_cap=math.inf)
        plain, compensated = simulate(config, MODULE, payload_bits(2 * 512, 0),
                                      (None, lambda v: post_distort(v, MODULE, cfg)))
        gaps = np.diff(plain.centroids)
        assert np.max(gaps) - np.min(gaps) > 0.1 * np.max(gaps)
        gaps = np.diff(compensated.centroids)
        assert np.max(gaps) - np.min(gaps) <= 1e-6 * np.max(gaps)

    def test_requires_zero_mean(self):
        cfg = PostDistortionConfig(operating_lux=350.0)
        with pytest.raises(ValueError, match="AC-coupled"):
            post_distort(np.full(32, 0.01), MODULE, cfg)

    @pytest.mark.parametrize("where", [0, 17, 63])
    def test_nan_sample_rejected(self, where):
        """One NaN sample makes the mean and the RMS NaN; the zero-mean check rejects it by name."""
        v = np.sin(np.linspace(0.0, 4.0 * math.pi, 64, endpoint=False)) * 1e-3
        v[where] = np.nan
        with pytest.raises(ValueError, match="hold no NaN or inf, got mean nan"):
            post_distort(v, MODULE, PostDistortionConfig(operating_lux=350.0))

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_sample_rejected(self, value):
        """One inf sample makes the RMS inf, so a clip to a finite output cannot hide it."""
        v = np.sin(np.linspace(0.0, 4.0 * math.pi, 64, endpoint=False)) * 1e-3
        v[3] = value
        with pytest.raises(ValueError, match=f"hold no NaN or inf, got mean {value!r}$"):
            post_distort(v, MODULE, PostDistortionConfig(operating_lux=350.0))

    def test_gain_cap_bounds_noise_amplification(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(0.0, 5e-3, 200_000)
        noise -= noise.mean()
        rms_in = float(np.sqrt(np.mean(noise**2)))
        amplification = []
        for cap in [1.0, 2.0, 4.0, 8.0, math.inf]:
            out = post_distort(noise, MODULE, PostDistortionConfig(350.0, cap))
            amplification.append(float(np.sqrt(np.mean(out**2))) / rms_in)
        assert all(b >= a * (1 - 1e-12) for a, b in zip(amplification, amplification[1:]))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PostDistortionConfig(operating_lux=0.0)
        with pytest.raises(ValueError):
            PostDistortionConfig(operating_lux=100.0, gain_cap=0.5)

    @pytest.mark.parametrize("lux", [True, np.True_, "350", None, math.nan, math.inf, -1.0, 10**400])
    def test_operating_lux_must_be_finite_positive(self, lux):
        with pytest.raises(ValueError, match=f"operating_lux must be a finite number > 0, got {lux!r}"):
            PostDistortionConfig(lux)

    @pytest.mark.parametrize("cap", [True, np.True_, "4", None, math.nan, -math.inf, 0.5, 10**400])
    def test_gain_cap_must_be_at_least_one(self, cap):
        with pytest.raises(ValueError, match=f"gain_cap must be a number >= 1 or math.inf, got {cap!r}"):
            PostDistortionConfig(350.0, cap)

    @pytest.mark.parametrize("lux,cap", [(350, 1), (np.float64(350.0), np.int64(4)), (1e-3, math.inf),
                                         (350.0, np.inf)])
    def test_numbers_accepted(self, lux, cap):
        cfg = PostDistortionConfig(lux, cap)
        assert (cfg.operating_lux, cfg.gain_cap) == (lux, cap)


    @pytest.mark.parametrize("gain_cap", [4.0, math.inf])
    def test_matches_reference_formula(self, gain_cap):
        """The in-place steps give the exponential form's bits and leave the input alone."""
        rng = np.random.default_rng(5)
        v_ac = ac_couple(module_voltage(rng.uniform(50.0, 900.0, 4096), MODULE) + rng.normal(0, 2e-3, 4096))
        before = v_ac.copy()
        cfg = PostDistortionConfig(operating_lux=350.0, gain_cap=gain_cap)
        p = MODULE.params
        v_dc = module_voltage(350.0, MODULE)
        scale = MODULE.cell_count * p.n * p.v_t
        x = np.exp(np.clip(v_ac, -v_dc, scale * math.log(gain_cap)) * (1.0 / scale))
        gain = first_derivative(350.0, MODULE, "exact") * (p.i0 / p.eta) * math.exp(v_dc / scale)
        expected = (x - x.mean()) * gain
        v_ac.flags.writeable = False
        assert np.array_equal(post_distort(v_ac, MODULE, cfg), expected)
        assert np.array_equal(v_ac, before)

    @pytest.mark.parametrize("gain_cap", [1.0, 4.0, math.inf])
    @pytest.mark.parametrize("raw", [False, True], ids=["ac-coupled", "raw"])
    def test_agrees_with_expm1_form(self, gain_cap, raw):
        """exp with folded constants is the re-biased expm1 inverse, to 1e-12 of the output's largest magnitude.

        The AC-coupled case is `post_distort` (mean 0); the raw case is what a
        PostDistortionConfig entry of `simulate` runs, with the waveform's
        mean mu folded into the clip bounds.
        """
        rng = np.random.default_rng(6)
        raw_v = module_voltage(rng.uniform(50.0, 900.0, 4096), MODULE) + rng.normal(0, 2e-3, 4096)
        mu = float(raw_v.mean())
        v_ac = raw_v - mu
        cfg = PostDistortionConfig(operating_lux=350.0, gain_cap=gain_cap)
        p = MODULE.params
        v_dc = module_voltage(350.0, MODULE)
        lux_hat = (p.i0 / p.eta) * np.expm1(np.clip(v_ac + v_dc, 0.0, v_dc + MODULE.scale * np.log(gain_cap))
                                            / MODULE.scale)
        expected = (lux_hat - lux_hat.mean()) * first_derivative(350.0, MODULE, "exact")
        if raw:
            bounds = clip_bounds(mu, MODULE, cfg)
            x = invert_clipped(raw_v, np.empty_like(raw_v), bounds, MODULE)
            out = affine_tail(x, x.mean(), bounds, MODULE, cfg)
        else:
            out = post_distort(v_ac, MODULE, cfg)
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()
        if gain_cap == 1.0:   # the cap clips every voltage above the operating point
            assert np.ptp(out[v_ac >= 0]) <= 1e-12 * np.abs(expected).max()
