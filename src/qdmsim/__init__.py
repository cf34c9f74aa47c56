"""Measurement-protocol simulator and analysis toolkit for scanning QDMs.

Subpackages by concern:

* photophysics - intensity-dependent NV timescales, flux, and contrast
* sequence     - pulse-sequence timelines for the measurement protocols
* sensitivity  - per-voxel sensitivity formulas and the comparison sweep
* calibration  - timescale extraction from delay-sweep traces, curve fits
* montecarlo   - photon shot-noise simulation (oracle for the formulas)
* scanplan     - voxel-grid scheduling and AOM frequency mapping
* config / cli - flat key-value run configuration and the batch commands
"""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError, ExtractionError, OutOfRangeError
from .photophysics import (LogQuadraticCurve, PhotophysicsModel,
                           confocal_intensity, contrast_at_delay, init_time,
                           lightsheet_intensity, photon_flux, readout_time)
from .sequence import (CALIBRATION, CONVENTIONAL, LCQDM, LEIBOLD, PROTOCOLS,
                       ProtocolParams, PulseSequence, SequenceEvent,
                       ValidationReport, build_calibration_sequence,
                       build_conventional_cycle, build_cycle, build_lcqdm_cycle,
                       build_leibold_cycle, duty_cycle, recurrent_count_lcqdm,
                       recurrent_count_leibold, validate_sequence)
from .sensitivity import (SensitivityGrid, SensitivityResult, SweepSpec,
                          RECURRENT_SNR_PREFACTOR, eta_conventional,
                          eta_exact, eta_lcqdm, eta_leibold, evaluate_point,
                          log_grid, sweep, time_reduction_factor)
from .calibration import (CalibrationTrace, ExtractedTimes, contrast,
                          extract_init_time, extract_readout_time,
                          extract_times, fit_log_quadratic, read_trace_csv,
                          trace_to_csv)
from .montecarlo import (PipelineResult, SimConfig, SimOutcome,
                         end_to_end_pipeline, simulate_calibration,
                         simulate_protocol)
from .scanplan import (AOMAxis, AOMCalibration, ScanPlan, SpeedupReport,
                       VoxelGrid, cycle_span_by_events, plan_acquisition,
                       rf_for_voxel, speedup_report, voxel_for_rf)
from .config import RunConfig, default_config, default_config_text, parse_config
