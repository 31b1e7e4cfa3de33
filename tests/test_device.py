import numpy as np
import pytest

from pvlc.device import (
    CellElectrical,
    check_count,
    ModuleSpec,
    PVCellParams,
    cell_voltage,
    first_derivative,
    inverse_voltage,
    module_voltage,
    photocurrent,
    second_derivative,
    short_circuit_current,
)

PARAMS = PVCellParams(n=1.5, i0=1e-10, eta=2e-9, temperature=300.0)
MODULE = ModuleSpec(cell_count=1, params=PARAMS)

# frozen 40-digit mpmath evaluations of the closed forms at the parameters above
V_250 = 0.3302874696727634391662199341628522070943
V_1000 = 0.3840393759912095008210247711133558302731
V_250_N3 = 0.9908624090182903174986598024885566212828
DV_250_EXACT = 1.550809825221087720515355609012712513719e-4
DV_250_ASYM = 1.551119987186131938059458680134515056222e-4
D2V_250_EXACT = -6.201998901104130056050212393572135627751e-7
D2V_250_ASYM = -6.204479948744527752237834720538060224888e-7


class TestParams:
    def test_thermal_voltage(self):
        assert PARAMS.v_t == pytest.approx(0.0258519997864355, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(n=0.0), dict(n=-1.0), dict(i0=0.0), dict(eta=-2e-9), dict(temperature=0.0),
        *({field: value} for field in ("n", "i0", "eta", "temperature")
          for value in (np.inf, -np.inf, np.nan, "1.5", True)),
    ])
    def test_invalid_params_rejected(self, kwargs):
        full = dict(n=1.5, i0=1e-10, eta=2e-9, temperature=300.0)
        full.update(kwargs)
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be a finite number > 0"):
            PVCellParams(**full)

    def test_invalid_cell_count(self):
        for count in (0, True, np.True_, 1.5, 2.0, "2", None, 10**400, np.int64(-1)):
            with pytest.raises(ValueError, match="cell_count must be an integer >= 1"):
                ModuleSpec(cell_count=count, params=PARAMS)

    def test_params_stored_as_float(self):
        params = PVCellParams(n=2, i0=np.float32(1e-10), eta=2e-9, temperature=2**70)
        assert all(type(getattr(params, f)) is float for f in ("n", "i0", "eta", "temperature"))
        assert params.n == 2.0 and params.temperature == 2.0**70
        assert ModuleSpec(cell_count=np.int64(2), params=params).cell_count == 2

    def test_scale_is_module_voltage_per_log_unit(self):
        spec = ModuleSpec(cell_count=3, params=PARAMS)
        assert spec.scale == 3 * PARAMS.n * PARAMS.v_t
        assert module_voltage(250.0, spec) == pytest.approx(spec.scale * np.log1p(250.0 * PARAMS.eta / PARAMS.i0))

    def test_invalid_cell_electrical(self):
        with pytest.raises(ValueError):
            CellElectrical(i_ph=-1e-3, r_shunt=100.0)
        with pytest.raises(ValueError):
            CellElectrical(i_ph=1e-3, r_shunt=0.0)

    @pytest.mark.parametrize("value", [np.inf, np.nan, True, "1.0"])
    def test_cell_electrical_fields_must_be_finite(self, value):
        with pytest.raises(ValueError, match="photocurrent must be >= 0"):
            CellElectrical(i_ph=value, r_shunt=1.0)
        with pytest.raises(ValueError, match="shunt resistance must be > 0"):
            CellElectrical(i_ph=1.0, r_shunt=value)


class TestCheckCount:
    @pytest.mark.parametrize("value,minimum", [(0, 0), (8, 2), (np.int64(8), 8), (np.uint64(2**64 - 1), 1),
                                               (2**1000, 1)])
    def test_integer_at_or_above_minimum_returned(self, value, minimum):
        assert check_count("count", value, minimum) is value

    @pytest.mark.parametrize("value", [True, np.True_, 8.0, "8", None, 10**400, 1, np.int64(-8)])
    def test_everything_else_rejected(self, value):
        with pytest.raises(ValueError) as exc:
            check_count("count", value, 2)
        assert str(exc.value) == f"count must be an integer >= 2, got {value!r}"


class TestPhotocurrent:
    def test_zero(self):
        assert photocurrent(0.0, PARAMS) == 0.0

    def test_scaling(self):
        assert photocurrent(250.0, PARAMS) == pytest.approx(5e-7, rel=1e-15)
        assert photocurrent(1000.0, PARAMS) == pytest.approx(2e-6, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            photocurrent(-1.0, PARAMS)


class TestCellVoltage:
    def test_zero(self):
        assert cell_voltage(0.0, PARAMS) == 0.0

    def test_frozen_values(self):
        assert cell_voltage(250.0, PARAMS) == pytest.approx(V_250, rel=1e-12)
        assert cell_voltage(1000.0, PARAMS) == pytest.approx(V_1000, rel=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 10_000.0, 2001)
        v = cell_voltage(grid, PARAMS)
        assert np.all(np.diff(v) > 0)

    def test_array_and_scalar_agree(self):
        arr = cell_voltage(np.array([250.0, 1000.0]), PARAMS)
        assert arr[0] == cell_voltage(250.0, PARAMS)
        assert arr[1] == cell_voltage(1000.0, PARAMS)


class TestModuleVoltage:
    def test_single_cell_identity(self):
        spec = ModuleSpec(cell_count=1, params=PARAMS)
        assert module_voltage(123.4, spec) == cell_voltage(123.4, PARAMS)

    def test_three_cells(self):
        spec = ModuleSpec(cell_count=3, params=PARAMS)
        assert module_voltage(250.0, spec) == pytest.approx(V_250_N3, rel=1e-12)

    def test_n_scaling_bit_exact(self):
        lux = np.array([1.0, 7.7, 250.0, 1000.0, 1999.5])
        base = module_voltage(lux, ModuleSpec(cell_count=1, params=PARAMS))
        for n in range(1, 17):
            spec = ModuleSpec(cell_count=n, params=PARAMS)
            assert np.array_equal(module_voltage(lux, spec), n * base)

    def test_doubling(self):
        v4 = module_voltage(640.0, ModuleSpec(cell_count=4, params=PARAMS))
        v8 = module_voltage(640.0, ModuleSpec(cell_count=8, params=PARAMS))
        assert v8 == 2.0 * v4


class TestShortCircuitCurrent:
    def test_single_cell(self):
        assert short_circuit_current([CellElectrical(1e-3, 100.0)]) == 1e-3

    def test_hand_evaluated_pair(self):
        cells = [CellElectrical(1e-3, 50.0), CellElectrical(3e-3, 150.0)]
        assert short_circuit_current(cells) == pytest.approx(2.5e-3, rel=1e-15)

    @pytest.mark.parametrize("count", [2, 3, 5, 8, 13])
    def test_uniform_cells_exact(self, count):
        rng = np.random.default_rng(count)
        for _ in range(200):
            i_ph = float(rng.uniform(1e-9, 1e-1))
            r = float(rng.uniform(1e-2, 1e6))
            cells = [CellElectrical(i_ph, r)] * count
            assert short_circuit_current(cells) == i_ph

    def test_heterogeneous_within_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            count = int(rng.integers(2, 9))
            i_ph = rng.uniform(0.0, 1e-2, count)
            r = rng.uniform(1e-1, 1e5, count)
            cells = [CellElectrical(float(i), float(s)) for i, s in zip(i_ph, r)]
            value = short_circuit_current(cells)
            assert i_ph.min() <= value <= i_ph.max()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            short_circuit_current([])


class TestDerivatives:
    def test_frozen_first(self):
        assert first_derivative(250.0, MODULE, "exact") == pytest.approx(DV_250_EXACT, rel=1e-12)
        assert first_derivative(250.0, MODULE, "asymptotic") == pytest.approx(DV_250_ASYM, rel=1e-12)

    def test_frozen_second(self):
        assert second_derivative(250.0, MODULE, "exact") == pytest.approx(D2V_250_EXACT, rel=1e-12)
        assert second_derivative(250.0, MODULE, "asymptotic") == pytest.approx(D2V_250_ASYM, rel=1e-12)

    def test_signs_and_monotonicity(self):
        grid = np.logspace(0, np.log10(2000), 200)
        dv = first_derivative(grid, MODULE)
        d2v = second_derivative(grid, MODULE)
        assert np.all(dv > 0)
        assert np.all(np.diff(dv) < 0)
        assert np.all(d2v < 0)
        assert np.all(np.diff(-d2v) < 0)   # magnitude shrinks with illuminance

    def test_second_magnitude_ordering(self):
        assert abs(second_derivative(100.0, MODULE)) > abs(second_derivative(1000.0, MODULE))

    def test_linear_in_cells(self):
        one = ModuleSpec(cell_count=1, params=PARAMS)
        two = ModuleSpec(cell_count=2, params=PARAMS)
        assert second_derivative(300.0, two) == 2.0 * second_derivative(300.0, one)
        assert first_derivative(300.0, two) == 2.0 * first_derivative(300.0, one)

    def test_asymptotic_limit(self):
        big = 1e9
        ratio = first_derivative(big, MODULE, "exact") / first_derivative(big, MODULE, "asymptotic")
        assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_asymptotic_at_zero_rejected(self):
        with pytest.raises(ValueError):
            first_derivative(0.0, MODULE, "asymptotic")
        with pytest.raises(ValueError):
            second_derivative(0.0, MODULE, "asymptotic")
        assert np.isfinite(first_derivative(0.0, MODULE, "exact"))

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            first_derivative(10.0, MODULE, "numeric")

    def test_matches_finite_differences(self):
        spec = ModuleSpec(cell_count=4, params=PARAMS)
        grid = np.logspace(1, np.log10(2000), 64)
        h = grid * 1e-3
        fd1 = (module_voltage(grid + h, spec) - module_voltage(grid - h, spec)) / (2 * h)
        fd2 = (module_voltage(grid + h, spec) - 2 * module_voltage(grid, spec) + module_voltage(grid - h, spec)) / h**2
        assert np.allclose(fd1, first_derivative(grid, spec), rtol=1e-6)
        assert np.allclose(fd2, second_derivative(grid, spec), rtol=1e-5)

    def test_concavity_agrees_with_curvature(self):
        grid = np.linspace(10.0, 2000.0, 100)
        h = 1.0
        fd2 = module_voltage(grid + h, MODULE) - 2 * module_voltage(grid, MODULE) + module_voltage(grid - h, MODULE)
        assert np.all(fd2 < 0)
        assert np.all(second_derivative(grid, MODULE) < 0)


NAN_INPUTS = [float("nan"), np.nan, [1.0, np.nan], np.array([np.nan, 250.0, 1000.0])]
NAN_IDS = ["float", "numpy", "list", "array"]


class TestNaNRejected:
    """NaN fails every comparison, so each input check is written to let only valid numbers through."""

    @pytest.mark.parametrize("lux", NAN_INPUTS, ids=NAN_IDS)
    @pytest.mark.parametrize("evaluate", [
        lambda lux: photocurrent(lux, PARAMS),
        lambda lux: cell_voltage(lux, PARAMS),
        lambda lux: module_voltage(lux, MODULE),
        lambda lux: first_derivative(lux, MODULE),
        lambda lux: second_derivative(lux, MODULE),
    ], ids=["photocurrent", "cell_voltage", "module_voltage", "first_derivative", "second_derivative"])
    def test_illuminance(self, evaluate, lux):
        with pytest.raises(ValueError, match="illuminance must be >= 0, not negative or NaN"):
            evaluate(lux)

    @pytest.mark.parametrize("lux", NAN_INPUTS, ids=NAN_IDS)
    @pytest.mark.parametrize("derivative", [first_derivative, second_derivative])
    def test_asymptotic_illuminance(self, derivative, lux):
        with pytest.raises(ValueError, match="illuminance must be > 0 for the asymptotic form, not NaN"):
            derivative(lux, MODULE, "asymptotic")

    @pytest.mark.parametrize("volts", NAN_INPUTS, ids=NAN_IDS)
    def test_voltage(self, volts):
        with pytest.raises(ValueError, match="voltage must be >= 0, not negative or NaN"):
            inverse_voltage(volts, MODULE)

    def test_empty_array_accepted(self):
        assert module_voltage(np.array([]), MODULE).size == 0
        assert inverse_voltage(np.array([]), MODULE).size == 0


class TestInverse:
    def test_zero(self):
        assert inverse_voltage(0.0, MODULE) == 0.0

    @pytest.mark.parametrize("lux", [1.0, 10.0, 100.0, 1000.0, 2000.0])
    def test_round_trip_from_lux(self, lux):
        back = inverse_voltage(module_voltage(lux, MODULE), MODULE)
        assert back == pytest.approx(lux, rel=1e-9)

    def test_round_trip_from_volts(self):
        spec = ModuleSpec(cell_count=3, params=PARAMS)
        volts = np.linspace(0.0, module_voltage(2000.0, spec), 50)
        again = module_voltage(inverse_voltage(volts, spec), spec)
        assert np.allclose(again, volts, rtol=1e-9, atol=1e-15)

    def test_dense_round_trip(self):
        grid = np.linspace(0.0, 2000.0, 4001)
        back = inverse_voltage(module_voltage(grid, MODULE), MODULE)
        assert np.allclose(back, grid, rtol=1e-9, atol=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            inverse_voltage(-0.1, MODULE)

    def test_closed_form_bits_and_input_kept(self):
        spec = ModuleSpec(cell_count=3, params=PARAMS)
        volts = np.linspace(0.0, module_voltage(2000.0, spec), 1001)
        before = volts.copy()
        expected = (PARAMS.i0 / PARAMS.eta) * np.expm1(volts / (3 * PARAMS.n * PARAMS.v_t))
        assert np.array_equal(inverse_voltage(volts, spec), expected)
        assert np.array_equal(volts, before)
        assert isinstance(inverse_voltage(volts[7], spec), float)
        assert inverse_voltage(volts[7], spec) == expected[7]
