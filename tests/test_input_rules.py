"""The two input rules of qdmsim.errors and every entry point they guard.

whole_number holds counts, seeds and indices; finite_number holds
quantities.  Each row of the table below is an entry point, the argument
it checks and the bad values that apply to its rule: NaN, +-inf,
non-integral, negative, zero, for counts 2**53 + 1, and for quantities
what is not one real number ("3", None, a 2-element array).  Every one
must end in a DomainError whose message names the argument, never in
numpy's or Python's TypeError, ValueError or OverflowError.
"""

import math
import re

import numpy as np
import pytest

from qdmsim import LCQDM, ProtocolParams, SimConfig
from qdmsim.cli import main
from qdmsim.errors import MAX_EXACT_COUNT, DomainError, finite_number, whole_number
from qdmsim.montecarlo import end_to_end_pipeline, simulate_calibration
from qdmsim.photophysics import (LogQuadraticCurve, PhotophysicsModel,
                                 confocal_intensity, init_time,
                                 lightsheet_intensity, photon_flux, readout_time)
from qdmsim.scanplan import (AOMAxis, AOMCalibration, VoxelGrid, plan_acquisition,
                             rf_for_voxel, voxel_for_rf)
from qdmsim.sensitivity import SweepSpec, log_grid
from qdmsim.sequence import build_calibration_sequence, build_cycle

MODEL = PhotophysicsModel()
TIMES = dict(t_init_ls=10.0, t_init_conf=5.0, t_ro_conf=2.0, t_mw=100.0,
             t_d=0.1, t1=5000.0)
PARAMS = ProtocolParams(**TIMES)
GRID = VoxelGrid(4, 4, 2, 1.0)
CAL = AOMCalibration(AOMAxis(80.0, 0.1), AOMAxis(80.0, 0.1),
                     AOMAxis(80.0, -0.1), AOMAxis(80.0, -0.1))
SWEEP = dict(i_conf_grid=(1.0,), t_mw_grid=(10.0,), i_ls=0.2, model=MODEL,
             t1=5000.0, t_d=0.1)

# bad values per rule
FINITE = [math.nan, math.inf, -math.inf, "3", None, np.array([1.0, 2.0])]
AT_LEAST_0 = FINITE + [-1.0]
POSITIVE = AT_LEAST_0 + [0.0]
WHOLE = [math.nan, math.inf, -math.inf, 2.5, "3"]
SEED = WHOLE + [-1]
INDEX = WHOLE + [0, -1]
COUNT = INDEX + [MAX_EXACT_COUNT + 1]

GUARDED = [
    ("lightsheet_intensity", "p_ls", lambda v: lightsheet_intensity(v, 100.0, 10.0),
     AT_LEAST_0),
    ("lightsheet_intensity", "l_y", lambda v: lightsheet_intensity(2000.0, v, 10.0),
     POSITIVE),
    ("lightsheet_intensity", "d_ls", lambda v: lightsheet_intensity(2000.0, 100.0, v),
     POSITIVE),
    ("confocal_intensity", "p_conf", lambda v: confocal_intensity(v, 0.53), AT_LEAST_0),
    ("confocal_intensity", "delta_conf", lambda v: confocal_intensity(2.0, v), POSITIVE),
    *(("LogQuadraticCurve", name,
       lambda v, k=k: LogQuadraticCurve(*(v if i == k else 0.5 for i in range(3))),
       FINITE) for k, name in enumerate("abc")),
    ("LogQuadraticCurve.duration", "intensity",
     lambda v: LogQuadraticCurve(0.7, -0.9, 0.1).duration(v), POSITIVE),
    ("PhotophysicsModel", "i_sat", lambda v: PhotophysicsModel(i_sat=v), POSITIVE),
    ("PhotophysicsModel", "r_max", lambda v: PhotophysicsModel(r_max=v), POSITIVE),
    ("init_time", "intensity", lambda v: init_time(MODEL, v), POSITIVE),
    ("readout_time", "intensity", lambda v: readout_time(MODEL, v), POSITIVE),
    ("photon_flux", "intensity", lambda v: photon_flux(MODEL, v), AT_LEAST_0),
    *(("ProtocolParams", name, lambda v, name=name: ProtocolParams(**{**TIMES, name: v}),
       POSITIVE if name in ("t_ro_conf", "t1") else AT_LEAST_0) for name in TIMES),
    ("build_calibration_sequence", "t_sweep",
     lambda v: build_calibration_sequence(PARAMS, v), AT_LEAST_0),
    ("build_cycle", "n_readouts", lambda v: build_cycle(LCQDM, PARAMS, v), INDEX),
    ("VoxelGrid", "pitch", lambda v: VoxelGrid(2, 2, 1, v), POSITIVE),
    *(("VoxelGrid", name,
       lambda v, k=k: VoxelGrid(*(v if i == k else 2 for i in range(3)), 1.0), INDEX)
      for k, name in enumerate(("nx", "ny", "nz"))),
    ("AOMAxis", "f0", lambda v: AOMAxis(v, 0.1), POSITIVE),
    ("AOMAxis", "slope", lambda v: AOMAxis(80.0, v), FINITE),
    ("voxel_for_rf", "iz",
     lambda v: voxel_for_rf(rf_for_voxel((1, 1, 0), GRID, CAL), GRID, CAL, iz=v), WHOLE),
    ("plan_acquisition", "t_z_step",  # None: no focus steps
     lambda v: plan_acquisition(GRID, PARAMS, LCQDM, t_z_step=v),
     [bad for bad in AT_LEAST_0 if bad is not None]),
    ("SweepSpec", "t1", lambda v: SweepSpec(**{**SWEEP, "t1": v}), POSITIVE),
    ("SweepSpec", "t_d", lambda v: SweepSpec(**{**SWEEP, "t_d": v}), AT_LEAST_0),
    ("log_grid", "n", lambda v: log_grid(1.0, 2.0, v), INDEX),
    ("SimConfig", "n_trials",
     lambda v: SimConfig(PARAMS, MODEL, 1.0, n_trials=v, master_seed=0), COUNT),
    ("SimConfig", "master_seed",
     lambda v: SimConfig(PARAMS, MODEL, 1.0, n_trials=10, master_seed=v), SEED),
    *(("simulate_calibration", "shots_per_point",
       lambda v, quiet=quiet: simulate_calibration(MODEL, 1.0, [0.0, 1.0], v, seed=0,
                                                   noiseless=quiet), COUNT)
      for quiet in (False, True)),
    *(("simulate_calibration", "seed",
       lambda v, quiet=quiet: simulate_calibration(MODEL, 1.0, [0.0, 1.0], 4, seed=v,
                                                   noiseless=quiet), SEED)
      for quiet in (False, True)),
    ("end_to_end_pipeline", "master_seed",
     lambda v: end_to_end_pipeline(MODEL, [0.5, 1.0, 2.0], [np.linspace(0, 5, 10)] * 3,
                                   4, v, noiseless=True), SEED),
]

CASES = [pytest.param(call, arg, bad, id=f"{entry}-{arg}-{bad!r}")
         for entry, arg, call, bads in GUARDED for bad in bads]


@pytest.mark.parametrize("call, arg, bad", CASES)
def test_bad_value_is_domain_error_naming_the_argument(call, arg, bad):
    with pytest.raises(DomainError) as info:
        call(bad)
    assert re.search(rf"\b{arg} (must be|exceeds)", str(info.value)), str(info.value)


# numpy integers and bools are whole numbers
@pytest.mark.parametrize("call", [
    lambda: SimConfig(PARAMS, MODEL, 1.0, n_trials=np.int64(3), master_seed=np.uint64(7)),
    lambda: SimConfig(PARAMS, MODEL, 1.0, n_trials=True, master_seed=False),
    lambda: simulate_calibration(MODEL, 1.0, [0.0, 1.0], np.int8(4), seed=np.uint64(2**63)),
    lambda: VoxelGrid(np.int64(3), np.uint8(2), True, 1.0),
    lambda: voxel_for_rf(rf_for_voxel((1, 1, 0), GRID, CAL), GRID, CAL, iz=np.int16(1)),
    lambda: log_grid(1.0, 2.0, np.uint32(3)),
    lambda: build_cycle(LCQDM, PARAMS, np.int32(2)),
    lambda: build_cycle(LCQDM, PARAMS, True),
], ids=["SimConfig-numpy", "SimConfig-bool", "simulate_calibration", "VoxelGrid",
        "voxel_for_rf", "log_grid", "build_cycle-numpy", "build_cycle-bool"])
def test_numpy_integers_and_bools_accepted(call):
    call()


@pytest.mark.parametrize("trials", ["0", "-3", str(MAX_EXACT_COUNT + 1)])
def test_cli_trial_count_exits_2(tmp_path, capsys, trials):
    out = tmp_path / "o"
    assert main(["simulate", "--protocol", "lcqdm", "--trials", trials,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.match(r"domain error: n_trials (must be|exceeds)", err), err
    assert not out.exists()


class TestRules:
    def test_whole_number_returns_an_int(self):
        for value in (3, np.int64(3), np.uint8(3)):
            n = whole_number("k", value, 1)
            assert n == 3 and type(n) is int
        assert whole_number("k", True, 0) == 1
        assert whole_number("k", 2**70, 0) == 2**70
        assert whole_number("k", MAX_EXACT_COUNT, 1, MAX_EXACT_COUNT) == 2**53

    @pytest.mark.parametrize("value, lo, hi, message", [
        (2.5, 1, None, "k must be a whole number, got 2.5"),
        ("3", 1, None, "k must be a whole number, got '3'"),
        (0, 1, None, "k must be >= 1, got 0"),
        (-1, 0, None, "k must be >= 0, got -1"),
        (5, 1, 4, "k must be <= 4, got 5"),
        (MAX_EXACT_COUNT + 1, 1, MAX_EXACT_COUNT,
         "k exceeds 2**53, the largest count a float64 holds exactly"),
    ])
    def test_whole_number_messages(self, value, lo, hi, message):
        with pytest.raises(DomainError) as info:
            whole_number("k", value, lo, hi)
        assert str(info.value) == message

    def test_finite_number_returns_the_value(self):
        value = np.float64(0.5)
        assert finite_number("x", value, 0, strict=True) is value
        assert finite_number("x", 0, 0) == 0
        assert finite_number("x", -1e308) == -1e308
        # what compares as one real number: bools as 0 and 1, and a
        # one-element array as its element
        for value in (True, False, np.bool_(True), np.array([0.5]), np.array(0.5)):
            assert finite_number("x", value, 0) is value

    @pytest.mark.parametrize("value, lo, strict, message", [
        (math.nan, -math.inf, False, "x must be finite, got nan"),
        (-math.inf, -math.inf, False, "x must be finite, got -inf"),
        (math.inf, 0, False, "x must be finite and >= 0, got inf"),
        (-1.0, 0, False, "x must be finite and >= 0, got -1.0"),
        (0.0, 0, True, "x must be finite and positive, got 0.0"),
        (np.float64(math.nan), 0, True, "x must be finite and positive, got nan"),
        (1.0, 2, False, "x must be finite and >= 2, got 1.0"),
        (2.0, 2, True, "x must be finite and > 2, got 2.0"),
        ("3", 0, False, "x must be a real number, got '3'"),
        (None, -math.inf, False, "x must be a real number, got None"),
        (np.array([1.0, 2.0]), 0, True, "x must be a real number, got array([1., 2.])"),
        (np.array([-1.0]), 0, False, "x must be finite and >= 0, got [-1.]"),
    ])
    def test_finite_number_messages(self, value, lo, strict, message):
        with pytest.raises(DomainError) as info:
            finite_number("x", value, lo, strict)
        assert str(info.value) == message
