"""Photovoltaic-module VLC receiver: OE model, calibration, PAM4 link, mitigation."""

from .device import (
    K_B,
    Q_E,
    CellElectrical,
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
from .calibration import (
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
from .link import (
    FEC_BER_THRESHOLD,
    BerReport,
    DetectionError,
    LinkConfig,
    LinkTrace,
    ac_couple,
    channel,
    detect_pam4,
    encode_pam4,
    receive,
    run_link,
    shot_noise_sigma,
    simulate,
    symbol_statistics,
    train_slicer,
    tx_waveform,
)
from .compensation import PostDistortionConfig, post_distort
from .seeding import mix64, payload_bits, point_seed

__version__ = "0.1.0"
