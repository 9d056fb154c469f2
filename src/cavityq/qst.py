"""Pitch-and-catch state transfer through a directional vacuum channel.

Single-excitation cascaded model with the channel field eliminated:

    da/dt = -(k1(t)/2 + i*dw/2) a
    db/dt = -k2(t)/2 b - sqrt(k1(t) k2(t)) a

where k1/k2 are the emitter/receiver coupling rates (plain 1/s; "Hz" here
means inverse seconds with no 2*pi), dw the relative node detuning, and the
channel flux |sqrt(k1) a + sqrt(k2) b|^2 accounts for the emitted photon, so
|a|^2 + |b|^2 + integrated flux = 1 identically.

The sech photon envelope (peak kappa/2) is produced by the matched rate pair
k1(t) = (kappa/2)(1 + tanh(kappa t / 2)), k2(t) = k1(-t): with those the
equations integrate in closed form to a = sqrt((1-tanh)/2),
b = -sqrt((1+tanh)/2), transferring the excitation completely. The protocol
is centered at t = 0, so spans should straddle zero.

Phase convention: the reported transfer amplitude is tau = -b(t1), real and
positive for matched resonant transfer, and the superposition fidelity is
F = | |alpha|^2 + |beta|^2 tau |^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    DegenerateDetuningError,
    NumericError,
    ParseError,
    ShapeError,
    StepSizeError,
    UsageError,
    is_json_number,
    NUMBERS,
    parse_errors,
    read_fields,
    read_kind,
    require_array,
    require_capacity,
    require_complex,
    require_finite,
    require_positive,
    require_real,
    require_reals,
)

_MAX_RATE_DT = 0.05
# most RK4 steps one transfer may take; at the cap its rates and traces
# peak at about 214 MiB, and a detuning sweep's rates at about 107 MiB
MAX_RK4_STEPS = 10**6
# RK4 steps scanned at once; bounds the scan temporaries of long spans
_CHUNK_STEPS = 2048


def sech_pitch(kappa_hz: float, t_s) -> np.ndarray | float:
    """Sech coupling/photon envelope kappa / (2 cosh(kappa t / 2)).

    Peaks at kappa/2 for t=0 and is even in t. The square integrates the
    emitted photon: the channel flux of the matched transfer is
    sech_pitch(kappa, t)^2 / kappa.
    """
    t = np.asarray(t_s, dtype=float)
    out = kappa_hz / (2.0 * np.cosh(kappa_hz * t / 2.0))
    return float(out) if np.isscalar(t_s) else out


def matched_emit_rate(kappa_hz: float) -> Callable[[float], float]:
    """Emitter decay rate producing the sech photon envelope:
    k1(t) = (kappa/2)(1 + tanh(kappa t / 2))."""
    kappa_hz = require_positive("kappa_hz", kappa_hz)

    def rate(t):
        return (kappa_hz / 2.0) * (1.0 + np.tanh(kappa_hz * np.asarray(t) / 2.0))

    return rate


def matched_catch_rate(kappa_hz: float) -> Callable[[float], float]:
    """Time reverse of the matched emitter rate: k2(t) = k1(-t)."""
    emit = matched_emit_rate(kappa_hz)

    def rate(t):
        return emit(-np.asarray(t))

    return rate


def raman_coupling(omega_drive_hz, g_hz: float, alpha_anharm_hz: float,
                   delta_hz: float):
    """Effective sideband coupling g*Omega*alpha / (sqrt(2) Delta (Delta+alpha)),
    pointwise in the drive envelope Omega."""
    if delta_hz == 0:
        raise DegenerateDetuningError("drive detuning Delta must be nonzero")
    if delta_hz + alpha_anharm_hz == 0:
        raise DegenerateDetuningError(
            "Delta + alpha hits the two-photon resonance (zero denominator)"
        )
    omega = np.asarray(omega_drive_hz, dtype=float)
    out = (g_hz * omega * alpha_anharm_hz
           / (math.sqrt(2.0) * delta_hz * (delta_hz + alpha_anharm_hz)))
    return float(out) if np.isscalar(omega_drive_hz) else out


@dataclass(frozen=True, eq=False)
class SampledWaveform:
    """Piecewise-linear rate samples anchored at t0_s, spaced dt_s apart.
    Evaluation clamps to the end samples outside the sampled window."""

    values: np.ndarray
    dt_s: float
    t0_s: float = 0.0

    def __post_init__(self) -> None:
        vals = require_array("values", self.values, (None,), float)
        if len(vals) < 2:
            raise ShapeError(f"sampled waveform needs >= 2 values, got {len(vals)}")
        if np.any(vals < 0):
            raise UsageError("coupling rates must be nonnegative")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dt_s", require_positive("dt_s", self.dt_s))
        object.__setattr__(self, "t0_s", require_finite("t0_s", self.t0_s))

    @property
    def times(self) -> np.ndarray:
        return self.t0_s + self.dt_s * np.arange(len(self.values))

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.dt_s))

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.values)


def _evaluate_rates(waveform, grid: np.ndarray, what: str) -> np.ndarray:
    """Evaluate a rate waveform on a time grid; validates nonnegativity."""
    if not callable(waveform):
        raise UsageError(f"{what} must be callable or a SampledWaveform")
    try:
        rates = np.asarray(waveform(grid), dtype=float)
        if rates.shape != grid.shape:
            raise TypeError
    except (TypeError, ValueError):
        rates = np.array([float(waveform(t)) for t in grid])
    if not np.all(np.isfinite(rates)):
        raise NumericError(f"{what} produced non-finite rates")
    if np.any(rates < 0):
        raise UsageError(f"{what} must be nonnegative everywhere")
    return rates


@dataclass(frozen=True, eq=False)
class QstConfig:
    """Transfer problem definition.

    `input_state` holds the qubit amplitudes (alpha, beta) of
    alpha|0> + beta|1>; only the single-excitation branch evolves.
    `channel_temperature` is a reserved extension hook and must be 0.
    """

    kappa_hz: float
    emit_waveform: object
    catch_waveform: object
    t_span_s: tuple[float, float]
    dt_s: float
    delta_omega_hz: float = 0.0
    input_state: tuple[complex, complex] = (0.0, 1.0)
    channel_temperature: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa_hz", require_positive("kappa_hz", self.kappa_hz))
        t0, t1 = (require_real("t_span_s entry", self.t_span_s[i]) for i in (0, 1))
        if not (math.isfinite(t0) and math.isfinite(t1)) or t1 <= t0:
            raise UsageError(f"invalid t_span {self.t_span_s}")
        object.__setattr__(self, "t_span_s", (t0, t1))
        object.__setattr__(self, "dt_s", require_positive("dt_s", self.dt_s))
        object.__setattr__(self, "delta_omega_hz",
                           require_real("delta_omega_hz", self.delta_omega_hz))
        if not math.isfinite(self.delta_omega_hz):
            raise NumericError("non-finite detuning")
        alpha, beta = (require_complex("input_state entry", self.input_state[i]) for i in (0, 1))
        nrm = abs(alpha) ** 2 + abs(beta) ** 2
        if not abs(nrm - 1.0) <= 1e-9:
            raise UsageError(
                f"input state must be normalized: |alpha|^2+|beta|^2 = {nrm}"
            )
        object.__setattr__(self, "input_state", (alpha, beta))
        if self.channel_temperature != 0:
            raise UsageError(
                "thermal channels are a reserved extension: "
                "channel_temperature must be 0"
            )


@dataclass(frozen=True, eq=False)
class QstResult:
    """Transfer outcome plus amplitude traces on the integrator grid."""

    eta: float
    fidelity: float
    transfer_amplitude: complex
    times_s: np.ndarray
    a_trace: np.ndarray
    b_trace: np.ndarray
    emitted_trace: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times_s", "a_trace", "b_trace", "emitted_trace"):
            arr = np.array(getattr(self, name), copy=True, order="C")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class _TransferGrid:
    """A transfer's RK4 steps and the parts of its coefficients that do not
    depend on the detuning, on the half-step grid: index 2j is t_j, 2j+1
    the midpoint."""

    n_steps: int
    dt: float
    k1: np.ndarray
    k2: np.ndarray
    cb: np.ndarray   # the decay coefficient of b
    cab: np.ndarray  # the a->b coupling

    def decay(self, delta_omega_hz: float) -> np.ndarray:
        """The decay coefficient of a at this detuning."""
        return -(self.k1 / 2.0 + 0.5j * delta_omega_hz)

    def chunks(self):
        """Each chunk of at most _CHUNK_STEPS steps, as (first step, one
        past its last step, its slice of the half-step grid)."""
        for j0 in range(0, self.n_steps, _CHUNK_STEPS):
            j1 = min(j0 + _CHUNK_STEPS, self.n_steps)
            yield j0, j1, slice(2 * j0, 2 * j1 + 1)


def _transfer_grid(config: QstConfig) -> _TransferGrid:
    """The step count, step and rates of a transfer, checked.

    Raises a CapacityError, before any allocation, when the step count is
    not finite or above MAX_RK4_STEPS, and a step-size error when
    max(k1, k2) * dt exceeds 0.05 on the integration grid.
    """
    t0, t1 = config.t_span_s
    steps = (t1 - t0) / config.dt_s
    if not math.isfinite(steps):
        raise CapacityError(f"t_span_s {config.t_span_s} over dt_s {config.dt_s} "
                            "is not a finite step count")
    n_steps = max(1, int(round(steps)))
    require_capacity(f"t_span_s {config.t_span_s} over dt_s {config.dt_s}", n_steps,
                     MAX_RK4_STEPS, "RK4 steps")
    dt = (t1 - t0) / n_steps
    grid = t0 + (dt / 2.0) * np.arange(2 * n_steps + 1)
    k1 = _evaluate_rates(config.emit_waveform, grid, "emit waveform")
    k2 = _evaluate_rates(config.catch_waveform, grid, "catch waveform")
    max_rate = float(max(k1.max(), k2.max()))
    if max_rate * dt > _MAX_RATE_DT * (1 + 1e-12):
        raise StepSizeError(
            f"max(kappa)*dt = {max_rate * dt:.3g} exceeds {_MAX_RATE_DT}; "
            f"reduce dt below {_MAX_RATE_DT / max_rate:.3e} s"
        )
    return _TransferGrid(n_steps, dt, k1, k2, -k2 / 2.0, -np.sqrt(k1 * k2))


def _step_maps(ca, cb, cab, dt):
    """The RK4 step maps of n steps, all at once, from the coefficients on
    their 2n+1 half-step grid points.

    The equations are linear, y' = C(t) y with y = (a, b) and C lower
    triangular, so the RK4 stages are y_s = S_s y with S_1 = I,
    S_2 = I + (dt/2) C_0 S_1, S_3 = I + (dt/2) C_m S_2 and
    S_4 = I + dt C_m S_3, and one step is y -> M y with
    M = I + (dt/6)(C_0 S_1 + 2 C_m S_2 + 2 C_m S_3 + C_1 S_4), lower
    triangular too. Lower-triangular 2x2 matrices are (aa, ba, bb) entry
    triples. Returns the M_j and the stages (S_2, S_3, S_4).
    """
    ca, cb, cab = ((x[:-1:2], x[1::2], x[2::2]) for x in (ca, cb, cab))
    h = dt / 2.0

    def slope(c, s):  # C_c S
        return (ca[c] * s[0], cab[c] * s[0] + cb[c] * s[1], cb[c] * s[2])

    def stage(x, k):  # I + x K
        return (1.0 + x * k[0], x * k[1], 1.0 + x * k[2])

    k1 = (ca[0], cab[0], cb[0])
    s2 = stage(h, k1)
    k2 = slope(1, s2)
    s3 = stage(h, k2)
    k3 = slope(1, s3)
    s4 = stage(dt, k3)
    k4 = slope(2, s4)
    m_aa, m_ba, m_bb = (
        (dt / 6.0) * (k1[e] + 2 * k2[e] + 2 * k3[e] + k4[e]) for e in range(3)
    )
    m_aa += 1.0
    m_bb += 1.0
    return (m_aa, m_ba, m_bb), (s2, s3, s4)


def _prefix_products(m_aa, m_ba, m_bb) -> None:
    """Replace the maps M_j by the products M_j M_{j-1} ... M_0, in place.

    Hillis-Steele scan: after the round with offset d, entry j holds the
    product M_j M_{j-1} ... M_{max(0, j-2d+1)}.
    """
    d = 1
    while d < len(m_aa):
        m_ba[d:] = m_ba[d:] * m_aa[:-d] + m_bb[d:] * m_ba[:-d]
        m_aa[d:] = m_aa[d:] * m_aa[:-d]
        m_bb[d:] = m_bb[d:] * m_bb[:-d]
        d *= 2


def _product(m_aa, m_ba, m_bb):
    """The product M_{n-1} ... M_0 as length-1 (aa, ba, bb) arrays: the last
    entry of _prefix_products, bitwise, in O(n) work.

    The scan's last entry takes, in its round with offset d, the partial
    products ending at steps n-1, n-1-2d, n-1-4d, ... times those ending d
    steps earlier, and leaves one with nothing d steps earlier as it is. So
    each round pairs neighbours from the last step back, and an unpaired
    first one waits for the next round.
    """
    while len(m_aa) > 1:
        odd = len(m_aa) % 2
        hi, lo = slice(1 + odd, None, 2), slice(odd, None, 2)
        pairs = (m_aa[hi] * m_aa[lo],
                 m_ba[hi] * m_aa[lo] + m_bb[hi] * m_ba[lo],
                 m_bb[hi] * m_bb[lo])
        m_aa, m_ba, m_bb = (np.concatenate((m[:1], pair)) if odd else pair
                            for m, pair in zip((m_aa, m_ba, m_bb), pairs))
    return m_aa, m_ba, m_bb


def _rk4_chunk(ca, cb, cab, w1, w2, dt, a, b, p) -> None:
    """The RK4 steps of one chunk, all at once.

    The coefficients hold the 2n+1 half-step grid points of the chunk's n
    steps. a, b and p are views of the traces over the chunk: entry 0 holds
    the state carried in, and entries 1..n are filled in. The traces are
    the prefix products of the step maps applied to the state carried in,
    and the flux of stage s is |(w1, w2) S_s y_j|^2.
    """
    (m_aa, m_ba, m_bb), (s2, s3, s4) = _step_maps(ca, cb, cab, dt)
    w1, w2 = ((x[:-1:2], x[1::2], x[2::2]) for x in (w1, w2))

    def gain(c, s):  # the flux amplitude (w1, w2) S as (on a, on b)
        return (w1[c] * s[0] + w2[c] * s[1], w2[c] * s[2])

    _prefix_products(m_aa, m_ba, m_bb)
    a[1:] = m_aa * a[0]
    b[1:] = m_ba * a[0] + m_bb * b[0]
    a_in, b_in = a[:-1], b[:-1]
    flux = sum(
        weight * np.abs(g * a_in + f * b_in) ** 2
        for weight, (g, f) in zip(
            (1, 2, 2, 1),
            ((w1[0], w2[0]), gain(1, s2), gain(1, s3), gain(2, s4)),
        )
    )
    p[1:] = p[0] + np.cumsum((dt / 6.0) * flux)


def _final_eta(b_final: complex) -> float:
    """eta = |b(t1)|^2, clamped to [0, 1]; a NumericError when it exceeds 1
    by more than 1e-6."""
    eta_raw = abs(b_final) ** 2
    if eta_raw > 1 + 1e-6:
        raise NumericError(f"integrator produced eta = {eta_raw} > 1")
    return min(max(eta_raw, 0.0), 1.0)


def simulate_transfer(config: QstConfig) -> QstResult:
    """RK4 integration of the cascaded amplitude equations.

    The excitation amplitude starts entirely in the emitter (a=1), the
    channel in vacuum. eta = |b(t1)|^2; the superposition fidelity uses the
    tau = -b(t1) phase reference. Raises a step-size error when
    max(k1, k2) * dt exceeds 0.05 on the integration grid, and a
    CapacityError, before any allocation, when the step count is not finite
    or above MAX_RK4_STEPS.
    """
    run = _transfer_grid(config)
    n_steps, dt = run.n_steps, run.dt
    # the decay coefficient of a and the two flux weights
    ca = run.decay(config.delta_omega_hz)
    w1 = np.sqrt(run.k1)
    w2 = np.sqrt(run.k2)

    a_trace = np.empty(n_steps + 1, dtype=complex)
    b_trace = np.empty(n_steps + 1, dtype=complex)
    p_trace = np.empty(n_steps + 1, dtype=float)
    a_trace[0], b_trace[0], p_trace[0] = 1.0, 0.0, 0.0
    for j0, j1, part in run.chunks():
        _rk4_chunk(ca[part], run.cb[part], run.cab[part], w1[part], w2[part], dt,
                   a_trace[j0:j1 + 1], b_trace[j0:j1 + 1], p_trace[j0:j1 + 1])
    b_final = complex(b_trace[-1])
    eta = _final_eta(b_final)
    tau = -b_final
    alpha, beta = config.input_state
    fid = abs(abs(alpha) ** 2 + abs(beta) ** 2 * tau) ** 2
    times = config.t_span_s[0] + dt * np.arange(n_steps + 1)
    return QstResult(
        eta=eta,
        fidelity=float(fid),
        transfer_amplitude=tau,
        times_s=times,
        a_trace=a_trace,
        b_trace=b_trace,
        emitted_trace=p_trace,
    )


def _transfer_eta(run: _TransferGrid, delta_omega_hz: float) -> float:
    """simulate_transfer's eta at this detuning, bitwise, with no traces or
    flux: each chunk's maps are multiplied out by _product, and (a, b) is
    carried as length-1 arrays, so every product runs in the array
    arithmetic of the traces' writes."""
    ca = run.decay(delta_omega_hz)
    a = np.ones(1, dtype=complex)
    b = np.zeros(1, dtype=complex)
    for _, _, part in run.chunks():
        maps, _ = _step_maps(ca[part], run.cb[part], run.cab[part], run.dt)
        m_aa, m_ba, m_bb = _product(*maps)
        a, b = m_aa * a, m_ba * a + m_bb * b
    return _final_eta(complex(b[0]))


@dataclass(frozen=True, eq=False)
class DetuningSweepResult:
    """Rows of (delta_omega_hz, eta, sqrt(1-eta)) plus the linear fit of
    sqrt(1-eta) against |delta_omega| (least squares with intercept)."""

    rows: tuple[tuple[float, float, float], ...]
    slope: float
    intercept: float
    r_squared: float
    baseline_eta: float

    def to_csv(self) -> str:
        lines = ["delta_omega_hz,eta,sqrt_one_minus_eta"]
        for dw, eta, root in self.rows:
            lines.append(f"{dw:.12e},{eta:.12e},{root:.12e}")
        return "\n".join(lines) + "\n"


def detuning_sweep(config: QstConfig,
                   delta_list: Sequence[float]) -> DetuningSweepResult:
    """Transfer efficiency versus node detuning.

    Requires a matched-waveform baseline: the zero-detuning transfer must
    exceed eta = 0.99 for the linear small-detuning law to be meaningful.
    That transfer runs once, first, and gives the row of any 0.0 entry.
    The grid, rates and checks are set up once for all points, and each
    point computes only its eta, bitwise simulate_transfer's.
    """
    deltas = require_reals("delta_list entry", delta_list)
    if len(deltas) < 2:
        raise UsageError("need at least two detunings to sweep")
    run = _transfer_grid(config)
    baseline = _transfer_eta(run, 0.0)
    if baseline <= 0.99:
        raise UsageError(
            f"baseline transfer eta = {baseline:.4f} <= 0.99: the sweep "
            "requires matched waveforms"
        )
    # replace() checks each detuning as a config field
    etas = [baseline if dw == 0
            else _transfer_eta(run, replace(config, delta_omega_hz=dw).delta_omega_hz)
            for dw in deltas]
    rows = [
        (dw, eta, math.sqrt(max(0.0, 1.0 - eta)))
        for dw, eta in zip(deltas, etas)
    ]
    x = np.array([abs(r[0]) for r in rows])
    ydat = np.array([r[2] for r in rows])
    if np.ptp(x) == 0:
        raise UsageError("detunings must span more than one |value| to fit")
    slope, intercept = np.polyfit(x, ydat, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((ydat - pred) ** 2))
    ss_tot = float(np.sum((ydat - ydat.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DetuningSweepResult(
        rows=tuple(rows),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        baseline_eta=float(baseline),
    )


def on_off_ratio(waveform, floor_hz: float,
                 t_span_s: tuple[float, float] | None = None,
                 samples: int = 4001) -> float:
    """Dynamic range max|kappa(t)| / floor of a coupling waveform.

    Array-like inputs and SampledWaveforms use their own samples; a bare
    callable needs t_span_s to evaluate on (an odd sample count includes
    the midpoint).
    """
    require_positive("floor_hz", floor_hz)
    if isinstance(waveform, SampledWaveform):
        peak = float(np.max(np.abs(waveform.values)))
    elif callable(waveform):
        if t_span_s is None:
            raise UsageError("a callable waveform needs t_span_s")
        grid = np.linspace(t_span_s[0], t_span_s[1], samples)
        peak = float(np.max(np.abs(_evaluate_rates(waveform, grid, "waveform"))))
    else:
        vals = require_array("waveform", waveform, (None,), float)
        if len(vals) == 0:
            raise ShapeError("waveform must be non-empty")
        peak = float(np.max(np.abs(vals)))
    return peak / floor_hz


# ---------------------------------------------------------------------------
# config JSON


def _waveform_from_json(spec: dict, slot: str, kappa_hz: float, t0_s: float):
    what = f"{slot} waveform"
    # a sech kappa_hz defaults to the config's, and has its own check
    kind, f = read_kind(spec, what, {"sech": ({}, {"kappa_hz": (object, kappa_hz)}),
                                     "sampled": ({"dt_s": float, "values": NUMBERS}, {})})
    with parse_errors(what):
        if kind == "sech":
            k = f["kappa_hz"]
            if not is_json_number(k):
                raise ParseError(f"{what}: 'kappa_hz' must be a number")
            # the sech photon-envelope protocol: rising tanh rate on the
            # emitter side, its time reverse on the catcher
            return (matched_emit_rate if slot == "emit" else matched_catch_rate)(k)
        return SampledWaveform(f["values"], f["dt_s"], t0_s)


def qst_config_from_json(text: str | dict) -> QstConfig:
    """Parse a transfer configuration document: JSON text, or the object
    decoded from it.

    Schema: {"kappa_hz":..., "t_span_s":[t0,t1], "dt_s":...,
    "delta_omega_hz":..., "input_state":[[re,im],[re,im]],
    "emit_waveform":{"kind":"sech"|"sampled",...},
    "catch_waveform":{...}, "channel_temperature":0}. Sampled waveforms are
    anchored at t_span_s[0].
    """
    # input_state is read by the array rule below
    f = read_fields(text, "transfer config",
                    {"kappa_hz": float, "t_span_s": NUMBERS, "dt_s": float,
                     "emit_waveform": dict, "catch_waveform": dict},
                    {"delta_omega_hz": (float, 0.0),
                     "input_state": (object, [[0.0, 0.0], [1.0, 0.0]]),
                     "channel_temperature": (float, 0.0)})
    kappa, span, state = f["kappa_hz"], f["t_span_s"], f["input_state"]
    if len(span) != 2:
        raise ParseError("'t_span_s' must be a [t0, t1] number pair")
    with parse_errors("transfer config"):
        state = require_array("field 'input_state'", state, (2, 2), float)
    t0 = span[0]
    emit = _waveform_from_json(f["emit_waveform"], "emit", kappa, t0)
    catch = _waveform_from_json(f["catch_waveform"], "catch", kappa, t0)
    with parse_errors("invalid transfer config"):
        return QstConfig(
            kappa_hz=kappa,
            emit_waveform=emit,
            catch_waveform=catch,
            t_span_s=(t0, span[1]),
            dt_s=f["dt_s"],
            delta_omega_hz=float(f["delta_omega_hz"]),
            input_state=(complex(*state[0]), complex(*state[1])),
            channel_temperature=float(f["channel_temperature"]),
        )
