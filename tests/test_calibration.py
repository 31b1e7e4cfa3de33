import io
import json

import numpy as np
import pytest

from pvlc.calibration import (
    DegenerateDataError,
    FitResult,
    ParseError,
    ResponseSample,
    SchemaError,
    fit_response,
    load_model_card,
    load_samples,
    save_model_card,
    to_i0,
)
from pvlc.device import K_B, Q_E, ModuleSpec, PVCellParams

TRUE_N = 1.5
TRUE_A = 20.0   # eta/i0 per lux


def synth_samples(n_points=50, cell_count=1, noise_sigma=0.0, rng=None, lo=10.0, hi=1000.0):
    lux = np.logspace(np.log10(lo), np.log10(hi), n_points)
    v_t = K_B * 300.0 / Q_E
    volts = cell_count * TRUE_N * v_t * np.log1p(TRUE_A * lux)
    if noise_sigma:
        volts = np.clip(volts + rng.normal(0.0, noise_sigma, n_points), 0.0, None)
    return [ResponseSample(float(l), float(v)) for l, v in zip(lux, volts)]


class TestLoadSamples:
    def test_single_zero_row(self):
        samples = load_samples(b"lux,volts\n0,0\n")
        assert samples == [ResponseSample(0.0, 0.0)]

    def test_two_rows_preserve_order(self):
        samples = load_samples("lux,volts\n250,0.3303\n1000,0.3840\n".encode())
        assert [s.lux for s in samples] == [250.0, 1000.0]
        assert [s.volts for s in samples] == [0.3303, 0.3840]

    def test_crlf_accepted(self):
        samples = load_samples(b"lux,volts\r\n10,0.1\r\n100,0.2\r\n")
        assert len(samples) == 2

    def test_file_object(self):
        samples = load_samples(io.StringIO("lux,volts\n5,0.05\n"))
        assert samples[0].lux == 5.0

    def test_path(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_text("lux,volts\n1,0.01\n")
        assert load_samples(p)[0].volts == 0.01

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            load_samples(b"illuminance,voltage\n1,1\n")

    def test_malformed_row_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            load_samples(b"lux,volts\n1,0.1\nnot,a number\n")

    def test_wrong_field_count_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_samples(b"lux,volts\n1,0.1,9\n")

    def test_negative_lux_rejected(self):
        with pytest.raises(ValueError, match="lux"):
            load_samples(b"lux,volts\n-5,0.1\n")

    def test_zero_lux_offset_warns(self):
        with pytest.warns(UserWarning, match="ambient"):
            load_samples(b"lux,volts\n0,0.05\n")


class TestFitResponse:
    def test_noiseless_recovery(self):
        fit = fit_response(synth_samples(), cell_count=1, temperature=300.0)
        assert fit.converged
        assert fit.n_hat == pytest.approx(TRUE_N, rel=1e-6)
        assert fit.a_hat == pytest.approx(TRUE_A, rel=1e-5)
        assert fit.rmse < 1e-9

    def test_noiseless_recovery_multicell(self):
        fit = fit_response(synth_samples(cell_count=4), cell_count=4, temperature=300.0)
        assert fit.n_hat == pytest.approx(TRUE_N, rel=1e-6)

    def test_noisy_recovery_median(self):
        estimates = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            fit = fit_response(synth_samples(noise_sigma=1e-3, rng=rng), 1, 300.0)
            estimates.append(fit.n_hat)
        assert np.median(estimates) == pytest.approx(TRUE_N, rel=0.05)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_response(synth_samples()[:3], 1, 300.0)

    def test_single_lux_unidentifiable(self):
        samples = [ResponseSample(100.0, 0.3)] * 6
        with pytest.raises(DegenerateDataError, match="unidentifiable"):
            fit_response(samples, 1, 300.0)

    def test_narrow_span_unidentifiable(self):
        lux = np.linspace(100.0, 200.0, 10)
        samples = [ResponseSample(float(l), 0.3) for l in lux]
        with pytest.raises(DegenerateDataError):
            fit_response(samples, 1, 300.0)

    def test_permutation_invariance_bit_exact(self):
        samples = synth_samples(noise_sigma=5e-4, rng=np.random.default_rng(3))
        fit_a = fit_response(samples, 1, 300.0)
        rng = np.random.default_rng(0)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        fit_b = fit_response(shuffled, 1, 300.0)
        assert fit_a.n_hat == fit_b.n_hat
        assert fit_a.a_hat == fit_b.a_hat

    def test_cost_history_non_increasing(self):
        rng = np.random.default_rng(11)
        fit = fit_response(synth_samples(noise_sigma=2e-3, rng=rng), 1, 300.0)
        costs = np.array(fit.cost_history)
        assert np.all(np.diff(costs) <= 0)

    def test_zero_lux_sample_tolerated(self):
        samples = [ResponseSample(0.0, 0.0)] + synth_samples()
        fit = fit_response(samples, 1, 300.0)
        assert fit.n_hat == pytest.approx(TRUE_N, rel=1e-5)

    def test_fit_depends_only_on_pairs(self):
        # two (eta, i0) generators with the same ratio produce identical data,
        # hence identical fits: the fitter never sees eta or i0 individually
        fit = fit_response(synth_samples(), 1, 300.0)
        assert fit.a_hat == pytest.approx(TRUE_A, rel=1e-5)

    def test_fitted_curve_concave_and_saturating(self):
        rng = np.random.default_rng(8)
        fit = fit_response(synth_samples(noise_sigma=1e-3, rng=rng), 1, 300.0)
        v_t = K_B * 300.0 / Q_E
        lux = np.linspace(0.0, 1000.0, 201)
        curve = fit.n_hat * v_t * np.log1p(fit.a_hat * lux)
        assert curve[0] == 0.0
        assert np.all(np.diff(curve) > 0)
        assert np.all(np.diff(curve, 2) < 0)

    def test_speed(self):
        import time
        samples = synth_samples(noise_sigma=1e-3, rng=np.random.default_rng(1))
        start = time.perf_counter()
        fit_response(samples, 1, 300.0)
        assert time.perf_counter() - start < 0.1


class TestToI0:
    def test_backs_out_saturation_current(self):
        fit = FitResult(n_hat=1.5, a_hat=20.0, rmse=0.0, iterations=1, converged=True)
        assert to_i0(fit, 2e-9) == pytest.approx(1e-10, rel=1e-12)
        assert to_i0(fit, 4e-9) == pytest.approx(2e-10, rel=1e-12)

    def test_eta_must_be_positive(self):
        fit = FitResult(n_hat=1.5, a_hat=20.0, rmse=0.0, iterations=1, converged=True)
        with pytest.raises(ValueError):
            to_i0(fit, 0.0)


class TestModelCard:
    def spec(self):
        return ModuleSpec(cell_count=3, params=PVCellParams(n=1.23456789012345, i0=3.3e-11, eta=2e-9, temperature=297.5))

    def fit(self):
        return FitResult(n_hat=1.23456789012345, a_hat=60.6, rmse=1.25e-4, iterations=17, converged=True)

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "model.json"
        save_model_card(self.spec(), self.fit(), path)
        loaded = load_model_card(path)
        assert loaded == self.spec()

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "model.json"
        save_model_card(self.spec(), self.fit(), path)
        card = json.loads(path.read_text())
        assert set(card) == {"cell_count", "n", "i0", "eta", "temperature", "fit"}
        assert set(card["fit"]) == {"rmse", "converged"}

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model_card(self.spec(), self.fit(), path)
        card = json.loads(path.read_text())
        del card["n"]
        with pytest.raises(SchemaError, match="missing"):
            load_model_card(json.dumps(card).encode())

    def test_extra_field_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model_card(self.spec(), self.fit(), path)
        card = json.loads(path.read_text())
        card["comment"] = "hi"
        with pytest.raises(SchemaError, match="extra"):
            load_model_card(json.dumps(card).encode())

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model_card(self.spec(), self.fit(), path)
        card = json.loads(path.read_text())
        card["n"] = -1.0
        with pytest.raises(ValueError):
            load_model_card(json.dumps(card).encode())

    @pytest.mark.parametrize("field,value", [
        ("cell_count", 1.7), ("cell_count", 2.0), ("cell_count", True), ("cell_count", "2"),
        ("n", "1.5"), ("temperature", False), ("i0", None),
    ])
    def test_non_numeric_value_rejected(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        save_model_card(self.spec(), self.fit(), path)
        card = json.loads(path.read_text())
        card[field] = value
        with pytest.raises(SchemaError, match=field):
            load_model_card(json.dumps(card).encode())

    def test_not_json(self):
        with pytest.raises(SchemaError):
            load_model_card(b"not json at all")
