"""Per-voxel sensitivity of the three protocols and the comparison sweep.

Sensitivity eta = sqrt(t) / SNR, in sqrt(us) with the readout SNR
normalized to 1 at the start of spin relaxation; smaller is better.  With
the recurrent protocols the initialization and MW overhead amortizes over
every readout that fits in t1, and the SNR averaged between the first and
last readout contributes the prefactor 2 / (1 + 1/e).  eta_paper(p, tag)
gives the paper's form (Barry et al.'s sensitivity convention) of each protocol,
the recurrent ones as 2/(1+1/e) * sqrt((overhead + t1) * slot / t1): the
continuum limit (readouts filling t1) of their cycle in sequence._CYCLES:

    LCQDM        2/(1+1/e) * sqrt((t_init_ls + t_mw + t1) * (t_ro + t_d) / t1)
    Leibold      2/(1+1/e) * sqrt((t_mw + t1) * (t_ro + t_init_conf + t_d) / t1)
    Conventional sqrt(t_mw + t_ro + t_init_conf + t_d), in the paper's order

eta_exact(p, tag) is the same accounting without the endpoint average: a
cycle of W readouts spanning T gives sqrt(T / W) / mean_k exp(-k * slot / t1),
the value the shot-noise Monte Carlo converges to.  When the readouts fill t1
the mean of the exponential is 1 - 1/e, not the endpoint average
(1 + 1/e) / 2, so the paper's recurrent formulas read low by the factor
(1 + 1/e) / (2 * (1 - 1/e)) = 1.0820: a systematic 8.2% gap that does not
shrink with more trials.  The conventional protocol reads once at zero
delay, where both forms agree.

The sweep evaluates the paper's three forms over an (I_conf, t_mw) grid,
deriving the laser timescales from a photophysics model, which reproduces
the characteristic comparison maps of the protocols.  SensitivityGrid.to_csv
prints each float as Python's str of it, which equals its repr (the
shortest text that reads back to the same double): nan for invalid cells,
and 1 or 0 in the valid column.  It goes through _csv.csv_text: the two
axes are formatted once per grid value and the cells block by block; the
text is byte for byte that of a cell-by-cell loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._csv import Axis, csv_text
from .errors import DomainError, OutOfRangeError, finite_number, whole_number
from .photophysics import PhotophysicsModel, init_time, readout_time
from .sequence import PROTOCOLS, ProtocolParams, _cycle, cycle_layout

#: Average of the first and last recurrent-readout SNR, 2 / (1 + e^-1).
RECURRENT_SNR_PREFACTOR = 2.0 / (1.0 + math.exp(-1.0))


def _grey_table() -> np.ndarray:
    """Each graymap level's decimal text and a space, right-aligned in
    4 bytes with leading NULs."""
    i = np.arange(256)
    text = np.zeros((256, 4), dtype=np.uint8)
    text[:, 0] = (i // 100 + 48) * (i >= 100)
    text[:, 1] = (i // 10 % 10 + 48) * (i >= 10)
    text[:, 2] = i % 10 + 48
    text[:, 3] = 32  # ' '
    return text.view(np.uint32).ravel()


_GREY_TEXT = _grey_table()

CSV_HEADER = ("i_conf_mw_per_um2,t_mw_us,eta_lc,eta_leibold,eta_conv,"
              "ratio_leibold_lc,ratio_conv_lc,valid")


def _paper_form(protocol_tag: str, p):
    """eta_paper over p's fields read by name; fields that are arrays broadcast."""
    recurrent, overhead, slot, _, _ = _cycle(protocol_tag, p)
    if recurrent:
        return RECURRENT_SNR_PREFACTOR * np.sqrt((overhead + p.t1) * slot / p.t1)
    # Not overhead + slot: that order differs in the last bit in 727 of the
    # 3721 default sweep cells, whose bytes tests/test_golden_outputs.py pins.
    return np.sqrt(p.t_mw + p.t_ro_conf + p.t_init_conf + p.t_d)


def eta_paper(p: ProtocolParams, protocol_tag: str) -> float:
    """The paper's sensitivity of one protocol, sqrt(us); see the module
    docstring for its three forms and their gap to eta_exact.  A value that
    overflows, as (overhead + t1) * slot can for finite times, is a
    DomainError."""
    eta = float(_paper_form(protocol_tag, p))
    if not math.isfinite(eta):
        raise DomainError(f"the paper's {protocol_tag} eta overflows ({eta!r})")
    return eta


def readout_decay_sum(n: int, slot: float, t1: float) -> float:
    """sum_{k<n} exp(-k * slot / t1) in closed form, without an n-sized array."""
    x = slot / t1
    return math.expm1(-n * x) / math.expm1(-x) if x > 0 else float(n)


def eta_exact(p: ProtocolParams, protocol_tag: str) -> float:
    """Exact noiseless sensitivity of one protocol cycle, sqrt(us).

    sqrt(span / W) / mean_k exp(-k * slot / t1) over the cycle's W readouts;
    see the module docstring for its gap to the paper's forms.
    """
    n, overhead, slot = cycle_layout(protocol_tag, p)
    return math.sqrt((overhead + n * slot) / n) / (readout_decay_sum(n, slot, p.t1) / n)


def time_reduction_factor(eta_ratio: float) -> float:
    """Measurement-time ratio at equal SNR for a given sensitivity ratio.

    eta scales as sqrt(t) at fixed SNR, so a sensitivity improvement of r
    shortens the measurement by r**2.
    """
    return eta_ratio * eta_ratio


@dataclass(frozen=True)
class SensitivityResult:
    eta_lcqdm: float
    eta_leibold: float
    eta_conventional: float
    ratio_leibold_over_lc: float
    ratio_conv_over_lc: float

    def __post_init__(self):
        for name in ("eta_lcqdm", "eta_leibold", "eta_conventional"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")


def evaluate_point(model: PhotophysicsModel, i_conf: float, t_mw: float,
                   i_ls: float, t1: float, t_d: float) -> SensitivityResult:
    """All three sensitivities at one (I_conf, t_mw) point.

    Laser timescales come from the model; the light-sheet initialization uses
    the same fitted init curve as the confocal beam.
    """
    p = ProtocolParams(
        t_init_ls=init_time(model, i_ls),
        t_init_conf=init_time(model, i_conf),
        t_ro_conf=readout_time(model, i_conf),
        t_mw=t_mw, t_d=t_d, t1=t1)
    lc, leibold, conv = (eta_paper(p, tag) for tag in PROTOCOLS)
    return SensitivityResult(lc, leibold, conv, leibold / lc, conv / lc)


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for the (I_conf, t_mw) comparison sweep."""

    i_conf_grid: tuple[float, ...]
    t_mw_grid: tuple[float, ...]
    i_ls: float
    model: PhotophysicsModel
    t1: float
    t_d: float

    def __post_init__(self):
        _require_increasing("i_conf_grid", self.i_conf_grid)
        _require_increasing("t_mw_grid", self.t_mw_grid)
        if not all(0 <= t < math.inf for t in self.t_mw_grid):
            raise DomainError("t_mw_grid must be finite and >= 0")
        finite_number("t1", self.t1, 0, strict=True)
        finite_number("t_d", self.t_d, 0)
        # Fails fast if i_ls is outside the model's fitted window.
        init_time(self.model, self.i_ls)


def _require_increasing(name: str, grid: tuple[float, ...]) -> None:
    if not grid:
        raise DomainError(f"{name} must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError(f"{name} must be strictly increasing")


def log_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """n log-spaced points from lo to hi inclusive."""
    n = whole_number("log_grid n", n, 1)
    if not 0 < lo < hi < math.inf:
        raise DomainError(f"bad grid request lo={lo}, hi={hi}, n={n}")
    if n == 1:
        return (lo,)
    la, lb = math.log10(lo), math.log10(hi)
    return tuple(10.0 ** (la + (lb - la) * k / (n - 1)) for k in range(n))


@dataclass(frozen=True, eq=False)
class SensitivityGrid:
    """Sweep output: the five float arrays below are indexed [r, c], with row
    r at spec.t_mw_grid[r] and column c at spec.i_conf_grid[c].

    An intensity outside the model validity range makes its whole column
    nan in all five; column_errors keeps one (c, message) per such column.
    """

    spec: SweepSpec
    eta_lcqdm: np.ndarray
    eta_leibold: np.ndarray
    eta_conventional: np.ndarray
    ratio_leibold_over_lc: np.ndarray
    ratio_conv_over_lc: np.ndarray
    column_errors: tuple[tuple[int, str], ...]

    @property
    def valid(self) -> np.ndarray:
        return ~np.isnan(self.eta_lcqdm)

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    def to_csv(self) -> str:
        n_i = len(self.spec.i_conf_grid)
        # the intensity varies fastest, each t_mw holds along its row
        return csv_text(CSV_HEADER, [
            Axis(np.asarray(self.spec.i_conf_grid, dtype=float)),
            Axis(np.asarray(self.spec.t_mw_grid, dtype=float), n_i),
            *(a.ravel() for a in (self.eta_lcqdm, self.eta_leibold, self.eta_conventional,
                                  self.ratio_leibold_over_lc, self.ratio_conv_over_lc)),
            self.valid.ravel()])

    def to_pgm(self, which: str = "conv_lc") -> str:
        """ASCII portable graymap (P2) of log10 of a ratio map.

        which is "conv_lc" or "leibold_lc".  Valid cells scale linearly from
        the map minimum (black) to maximum (white); invalid cells are black.
        """
        if which not in ("conv_lc", "leibold_lc"):
            raise DomainError(f"unknown ratio map {which!r}")
        logs = np.log10(self.ratio_conv_over_lc if which == "conv_lc"
                        else self.ratio_leibold_over_lc)
        finite = logs[self.valid]
        lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 1.0)
        scale = 255.0 / (hi - lo) if hi > lo else 0.0
        levels = np.where(self.valid, np.rint((logs - lo) * scale), 0).astype(int)
        h, w = levels.shape
        rows = np.take(_GREY_TEXT, levels).view(np.uint8).reshape(h, 4 * w)
        rows[:, -1] = 10  # each row's last space is its newline
        return f"P2\n{w} {h}\n255\n" + rows.tobytes().translate(None, b"\0").decode("ascii")


def sweep(spec: SweepSpec) -> SensitivityGrid:
    """Evaluate the sensitivity comparison over the full grid.

    The laser timescales are evaluated once per intensity; the paper's
    forms then broadcast over the (t_mw, I_conf) mesh.  An out-of-range
    intensity marks its column invalid and the sweep continues; a valid
    cell whose eta or ratio overflows is a DomainError.
    """
    t_init, t_ro = np.full((2, len(spec.i_conf_grid)), np.nan)
    col_errors = []
    for c, i_conf in enumerate(spec.i_conf_grid):
        try:
            t_init[c] = init_time(spec.model, i_conf)
            t_ro[c] = readout_time(spec.model, i_conf)
        except OutOfRangeError as exc:
            col_errors.append((c, str(exc)))
    t_mw = np.asarray(spec.t_mw_grid, dtype=float)[:, None]
    mesh = SimpleNamespace(t_init_ls=init_time(spec.model, spec.i_ls), t_init_conf=t_init,
                           t_ro_conf=t_ro, t_mw=t_mw, t_d=spec.t_d, t1=spec.t1)
    with np.errstate(over="ignore", invalid="ignore"):
        lc, leibold, conv = (_paper_form(tag, mesh) for tag in PROTOCOLS)
        cells = (lc, leibold, conv, leibold / lc, conv / lc)
    overflowed = ~np.isnan(t_ro) & ~np.isfinite(cells).all(axis=0)
    if overflowed.any():
        r, c = np.argwhere(overflowed)[0]
        raise DomainError(f"the sweep overflows at t_mw = {spec.t_mw_grid[r]!r} us, "
                          f"I_conf = {spec.i_conf_grid[c]!r} mW/um2: an eta or "
                          "ratio is not finite")
    return SensitivityGrid(spec, *cells, tuple(col_errors))
