"""Time-domain control of the dispersive qubit-cavity system.

Piecewise-constant complex drive schedules, forward simulation by exact
per-segment propagators, analytic-gradient pulse optimization for unitary
and state targets, number-selective SNAP pulse synthesis, and a
SNAP/displacement sequence optimizer for state preparation.

Unit conventions: drift Hamiltonians are in angular units (rad/s), control
operators are dimensionless quadratures, schedule amplitudes are in Hz, and
time steps are in seconds. A segment contributes
exp(-i*(H_drift + sum_k 2*pi*u_k*C_k)*dt).

Each complex amplitude stream pairs with two control operators: the stream's
real part drives controls[2s], the imaginary part controls[2s+1].

Simulation and GRAPE work block by block. The connected components of the
joint sparsity pattern of the drift and every control are invariant
subspaces, found once per model (`ControlModel.block_layout`): a
qubit-driven dispersive model splits into N 2x2 photon-number sectors
{|g,n>, |e,n>}, and a cavity drive or a dense model gives one block.
`simulate_schedule` carries a 2x2 block as the SU(2) pair of
`su2_factors`, never as a matrix, and a larger one through one batched
eigh per chunk of _CHUNK_ENTRIES; each chunk reads its coefficients from
the streams, so no array spans the schedule. `synthesize_snap_pulse`
streams its drive samples the same way. GRAPE takes each segment's block
eigensystem (2x2 in closed form), one prefix scan P_j = U_j...U_0, and the
backward products as U P_j^dag, with no second scan; only the on-block
entries of the controls enter its gradient. GRAPE keeps steepest ascent,
since `cavityq grape` writes its trace as an artifact whose bytes must not
change; the sequence optimizer takes L-BFGS directions, and its
displacement eigensystems come from the gates' cached quadrature
eigensystem, with no eigh.
"""

from __future__ import annotations

import bisect
import collections
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .device import DeviceParams, chi as dispersive_shift
from .errors import (
    BandwidthError,
    NumericError,
    ParseError,
    ShapeError,
    UsageError,
    parse_errors,
    read_fields,
    require_array,
    require_capacity,
    require_count,
    require_finite,
    require_flag,
    require_index,
    require_instance,
    require_on,
    require_phase,
    require_positive,
    require_sequence,
)
from .fock import (
    HilbertShape,
    Operator,
    StateVector,
    _matmul,
    _ordered_product,
    _sector_entries,
    _su2_product,
    annihilation,
    basis_state,
    eig_exponential,
    expm_hermitian,
    hermitian_eigensystem,
    number_operator,
    shape_of,
    su2_factors,
    su2_matrix,
)
from .gates import _displacement_factors, _snap_phases

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

# segments per 1/chi of pulse time; validated against step-halving refinement
_SNAP_SEGMENT_DENSITY = 900.0
_SNAP_MIN_SEGMENTS = 1500
# Gaussian envelope width as a fraction of each half-pulse
_SNAP_SIGMA_DIVISOR = 6.0
# complex entries per chunk of stacked segment blocks, 256 KiB of complex128:
# b*b per segment of a b×b block, so 128 segments of a cavity-drive model's
# one 16×16 block, and an SU(2) pair (a, b) per 2×2 block, so 1,024 segments
# of the N = 8 dispersive photon-number sectors. In the matrix layout the
# benchmark's ten SNAP jobs (one BLAS thread, interleaved rounds) ran faster
# at 2^14 than at 2^16 in 18 of 20 rounds and than at 2^13 in 13 of 16. In
# the pair layout 2^14 was fastest in 5 of 5 rounds (medians 168-178 ms),
# with 2^13 10-17 % and 2^15 19-22 % slower
_CHUNK_ENTRIES = 1 << 14
# most segments × streams one GRAPE schedule may have: a pass keeps every
# segment's eigensystem and prefix product; a qubit-model run at the cap
# peaks at about 160 MiB
MAX_GRAPE_SEGMENTS = 2 * 10**5
# most segments × block entries (Σ B·b² over block_layout) one GRAPE schedule
# may have, since those stacks set a pass's memory: the qubit model's one 2×2
# block reaches it at MAX_GRAPE_SEGMENTS, and runs at it peak at 114-142 MiB
MAX_GRAPE_ENTRIES = 4 * MAX_GRAPE_SEGMENTS
# most segments × streams one synthesized SNAP pulse may have: at its peak
# synthesis holds the drive samples and the schedule's checked copy of them,
# 33 B a stream segment; a one-stream N = 2 pulse at the cap peaks at
# 251.8 MiB traced (9 s)
MAX_SNAP_SEGMENTS = 8 * 10**6


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """Piecewise-constant drive: one complex amplitude stream per drive line.

    `dt_s` is the segment length in seconds, `streams` holds per-line
    amplitude arrays in Hz (all equal length), `carriers_hz` records the
    carrier frequency metadata for each line.
    """

    dt_s: float
    streams: tuple[np.ndarray, ...]
    carriers_hz: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dt_s", require_positive("dt_s", self.dt_s))
        first, *rest = require_sequence("streams", self.streams, least=1)
        first = require_array("stream 0", first, (None,), least=1)
        streams = (first, *(require_array(f"stream {i}", s, first.shape)
                            for i, s in enumerate(rest, 1)))
        object.__setattr__(self, "streams", streams)
        carriers = require_array("carriers_hz", self.carriers_hz, (len(streams),), float)
        object.__setattr__(self, "carriers_hz", tuple(carriers.tolist()))

    @property
    def n_streams(self) -> int:
        return len(self.streams)

    @property
    def n_segments(self) -> int:
        return len(self.streams[0])

    @property
    def duration_s(self) -> float:
        return self.dt_s * self.n_segments

    def to_json(self) -> str:
        doc = {
            "dt_s": self.dt_s,
            "controls": [
                {
                    "carrier_hz": self.carriers_hz[i],
                    "amps": [[float(a.real), float(a.imag)] for a in s],
                }
                for i, s in enumerate(self.streams)
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "PulseSchedule":
        f = read_fields(text, "schedule", {"dt_s": object, "controls": list})
        streams = []
        carriers = []
        for i, entry in enumerate(f["controls"]):
            what = f"control {i}"
            if not isinstance(entry, dict):
                raise ParseError(f"{what} must be an object")
            amps = read_fields(entry, what, {"carrier_hz": object, "amps": list})["amps"]
            # each [re, im] row viewed as one complex amplitude; [] has no
            # rows to be 0x2, so it is read as the empty array PulseSchedule refuses
            with parse_errors(what):
                pairs = require_array("field 'amps'", amps or np.empty((0, 2)),
                                      (len(amps), 2), float)
            streams.append(pairs.view(complex).ravel())
            carriers.append(entry["carrier_hz"])
        with parse_errors("invalid schedule"):
            return PulseSchedule(f["dt_s"], tuple(streams), tuple(carriers))


class _BlockGroup(NamedTuple):
    """B invariant blocks of one size b: their (B, b) index array, and the
    drift's (B, b, b) and the controls' (K, B, b, b) sub-blocks."""

    index: np.ndarray
    drift: np.ndarray
    controls: np.ndarray

    @property
    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays that select the (B, b, b) sub-blocks of a (d, d)
        matrix."""
        return self.index[:, :, None], self.index[:, None, :]


@dataclass(frozen=True, eq=False)
class ControlModel:
    """Drift Hamiltonian (rad/s) plus dimensionless control quadratures.

    Controls come in (real, imaginary) quadrature pairs, two per drive
    stream, so len(controls) must be even.
    """

    shape: HilbertShape
    drift: Operator
    controls: tuple[Operator, ...]

    def __post_init__(self) -> None:
        shape = shape_of(self.shape)
        object.__setattr__(self, "shape", shape)
        require_on("drift", self.drift, Operator, shape)
        if not self.drift.is_hermitian(1e-12 * max(
                1.0, float(np.max(np.abs(self.drift.matrix))))):
            raise UsageError("drift Hamiltonian must be Hermitian")
        controls = require_sequence("controls", self.controls)
        if not controls or len(controls) % 2:
            raise UsageError(
                "controls must come in quadrature pairs (two per drive stream)"
            )
        for i, op in enumerate(controls):
            if not require_on(f"control {i}", op, Operator, shape).is_hermitian(1e-12):
                raise UsageError(f"control {i} must be Hermitian")
        object.__setattr__(self, "controls", controls)

    @property
    def n_streams(self) -> int:
        return len(self.controls) // 2

    @cached_property
    def block_layout(self) -> tuple[_BlockGroup, ...]:
        """The _blocks of the model grouped by size, with the drift and
        control sub-blocks gathered. Computed once: the model is frozen and
        its matrices are read-only."""
        by_size: dict[int, list[np.ndarray]] = {}
        for block in _blocks(self):
            by_size.setdefault(len(block), []).append(block)
        controls = np.stack([op.matrix for op in self.controls])
        groups = []
        for members in by_size.values():
            index = np.stack(members)
            rows, cols = index[:, :, None], index[:, None, :]
            groups.append(_BlockGroup(index, self.drift.matrix[rows, cols],
                                      controls[:, rows, cols]))
        return tuple(groups)

    @cached_property
    def _entry_scales(self) -> tuple[float, tuple[float, ...]]:
        """max|H_drift| and, per stream, max|C_re| + max|C_im|: the factors of
        _segment_phase's entry bound, computed once like block_layout."""
        return (float(np.abs(self.drift.matrix).max()),
                tuple(sum(float(np.abs(c.matrix).max()) for c in self.controls[2 * s:2 * s + 2])
                      for s in range(self.n_streams)))


def qubit_model(detuning_hz: float = 0.0) -> ControlModel:
    """Two-level rotating-frame model: drift 2*pi*detuning*|e><e|,
    quadrature controls (sigma_x, sigma_y)."""
    drift = np.zeros((2, 2), dtype=complex)
    drift[1, 1] = 2 * np.pi * require_finite("detuning_hz", detuning_hz)
    shape = shape_of(2)
    return ControlModel(
        shape,
        Operator(shape, drift),
        (Operator(shape, _SIGMA_X), Operator(shape, _SIGMA_Y)),
    )


def dispersive_model(chi_hz: float, n_levels: int,
                     cavity_drive: bool = False) -> ControlModel:
    """Dispersive qubit-cavity model, qubit first: drift
    -2*pi*chi |e><e| (x) n_hat, qubit drive quadratures, and optionally
    cavity drive quadratures; cavity_drive a bool or a numpy bool."""
    shape = shape_of((2, n_levels), "n_levels")
    if n_levels < 2:
        raise UsageError(f"need at least 2 cavity levels, got {n_levels}")
    chi_hz = require_positive("chi_hz", chi_hz)
    cavity_drive = require_flag("cavity_drive", cavity_drive)
    if not math.isfinite(2 * math.pi * chi_hz * (n_levels - 1)):
        raise NumericError(f"chi_hz {chi_hz!r}: the drift's largest entry "
                           f"2*pi*chi_hz*(n_levels-1) overflows (n_levels = {n_levels})")
    nhat = number_operator(n_levels).matrix
    e_proj = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    drift = -2 * np.pi * chi_hz * np.kron(e_proj, nhat)
    eye_n = np.eye(n_levels)
    controls = [
        Operator(shape, np.kron(_SIGMA_X, eye_n)),
        Operator(shape, np.kron(_SIGMA_Y, eye_n)),
    ]
    if cavity_drive:
        a = annihilation(n_levels).matrix
        controls.append(Operator(shape, np.kron(np.eye(2), a + a.conj().T)))
        controls.append(Operator(shape, np.kron(np.eye(2), 1j * (a.conj().T - a))))
    return ControlModel(shape, Operator(shape, drift), tuple(controls))


def dispersive_model_from_device(params: DeviceParams, n_levels: int,
                                 cavity_drive: bool = False) -> ControlModel:
    """Dispersive model with chi taken from the device parameters."""
    return dispersive_model(dispersive_shift(params), n_levels, cavity_drive)


def _control_coefficients(amps: np.ndarray) -> np.ndarray:
    """(2S, M) real control coefficients 2*pi*Re(u_s), 2*pi*Im(u_s), in the
    order of model.controls, for (S, M) complex amplitudes in Hz."""
    quads = amps.view(float).reshape(*amps.shape, 2).transpose(0, 2, 1)
    return 2 * np.pi * quads.reshape(-1, amps.shape[1])


def _blocks(model: ControlModel) -> list[np.ndarray]:
    """Invariant subspaces shared by every segment Hamiltonian: the connected
    components of the joint sparsity pattern of the drift and all controls,
    as sorted index arrays ordered by their first index."""
    coupled = model.drift.matrix != 0
    for op in model.controls:
        coupled |= op.matrix != 0
    unassigned = np.ones(len(coupled), dtype=bool)
    blocks = []
    while unassigned.any():
        members = np.zeros_like(unassigned)
        frontier = np.zeros_like(unassigned)
        frontier[np.argmax(unassigned)] = True
        while frontier.any():
            members |= frontier
            frontier = coupled[frontier].any(axis=0) & ~members
        unassigned &= ~members
        blocks.append(np.flatnonzero(members))
    return blocks


def _prefix_products(u: np.ndarray) -> np.ndarray:
    """Inclusive ordered products p[j] = u[j] @ ... @ u[0] over the leading
    axis. Work-efficient: the products of neighbour pairs are scanned, which
    gives every odd p, and each even p is one more product, so M segments
    take about 2M products in about 2 log2(M) calls."""
    m = len(u)
    if m == 1:
        return u
    half = m // 2
    odd = _prefix_products(_matmul(u[1::2], u[0:2 * half:2]))
    p = np.empty_like(u)
    p[0], p[1::2] = u[0], odd
    p[2::2] = _matmul(u[2::2], odd[:(m - 1) // 2])
    return p


def _propagator(model: ControlModel, streams: Sequence[np.ndarray],
                dt: float) -> np.ndarray:
    """Full (d, d) propagator U_{M-1}...U_0 for S amplitude streams of M
    segments each, in Hz.

    NumericError first if `_segment_phase` refuses the streams. Each
    invariant block of model.block_layout is exponentiated on its own, with
    blocks of one size stacked together. Segments go in chunks of at most
    _CHUNK_ENTRIES complex entries per size group, each reading its control
    coefficients from the streams, and `_ordered_product` folds them one
    chunk at a time, so the temporaries stay near 256 KiB however long the
    schedule is, and no array spans all M segments.

    2x2 blocks (the photon-number sectors, the qubit) never form a matrix.
    A chunk's `_sector_entries` bz and h10 are small products of the control
    coefficients with the blocks' entries, each segment is the SU(2) pair
    (a, b) of `su2_factors`, and the fold multiplies pairs by
    `_su2_product`. The half traces c commute with everything, so the
    product's phase is one exponential of their sum. Larger blocks go
    through expm_hermitian, one batched eigh per chunk, and `_matmul`.
    """
    _segment_phase(model, streams, dt)
    d = model.shape.total_dim
    n_segments = len(streams[0])
    prop = np.zeros((d, d), dtype=complex)
    for group in model.block_layout:
        sectors = len(group.index) if group.index.shape[1] == 2 else 0
        # complex entries a segment holds: an (a, b) pair per sector, b*b per larger block
        step = max(1, _CHUNK_ENTRIES // (2 * sectors or group.drift.size))
        coeffs = (_control_coefficients(np.stack([s[start:start + step] for s in streams]))
                  for start in range(0, n_segments, step))
        if not sectors:
            prop[group.grid] = _ordered_product(
                lambda later, earlier: [_matmul(*later, *earlier)],
                ([expm_hermitian(group.drift + np.einsum("km,kbij->mbij", c, group.controls), dt)]
                 for c in coeffs))[0]
            continue
        # each entry as the drift's (B,) and the controls' (B, 2S)
        c0, z0, l0 = _sector_entries(group.drift)
        cg, zg, lg = (e.T for e in _sector_entries(group.controls))
        # the phase e^{-i dt sum(c)}: the drift's M c0 plus cg times each
        # control's summed coefficient, a pairwise sum over a stream. The
        # angle is taken in extended precision where the platform has it:
        # a double angle of A rad is off by up to A*2^-53
        summed = _control_coefficients(np.array([[s.sum()] for s in streams]))[:, 0]
        angle = np.longdouble(dt) * (n_segments * c0.astype(np.longdouble) + cg @ summed)
        # (B, m) sector-major, so each segment's pair is built along contiguous
        # segments; the fold reads their (m, B) views
        pairs = ([x.T for x in su2_factors(z0[:, None] + zg @ c, l0[:, None] + lg @ c, dt)]
                 for c in coeffs)
        prop[group.grid] = su2_matrix(np.exp(-1j * angle).astype(complex),
                                      *_ordered_product(_su2_product, pairs))
    return prop


def _phi_matrix(evals: np.ndarray, t: float) -> np.ndarray:
    """Divided differences of exp at the exponents m = -i*evals*t: the
    Hadamard kernel of the Frechet derivative of expm in the eigenbasis.
    Batched over leading axes: (..., d) evals give (..., d, d); symmetric in
    the last two axes. For imaginary exponents the difference quotient
    (e^{m_a} - e^{m_b}) / (m_a - m_b) is e^{(m_a + m_b)/2} sin(y)/y with
    y = (evals_a - evals_b) t / 2, which needs no special case at y = 0."""
    half = np.exp(-0.5j * t * evals)
    # np.sinc's own steps, without its wrapper: pi*x, then sin(y)/y with y = eps at 0
    x = np.pi * ((evals[..., :, None] - evals[..., None, :]) * (t / (2 * np.pi)))
    y = np.where(x, x, np.finfo(float).eps)
    return (half[..., :, None] * half[..., None, :]) * (np.sin(y) / y)


def _frechet_adjoint(vecs: np.ndarray, phi: np.ndarray, left: np.ndarray,
                     right: np.ndarray) -> np.ndarray:
    """S with Tr(adj dU) = Tr(E S) for every exponent direction E, where
    adj = left @ right^dag, dU = V ((V^dag E V) o phi) V^dag is the
    eigenbasis Frechet derivative of exp and phi = _phi_matrix(...) is
    symmetric. Batched over leading axes; left and right are (..., b, r),
    and with r = 1 a rank-one adj takes only vector products until S."""
    vecs_h = vecs.conj().swapaxes(-1, -2)
    x = _matmul(_matmul(vecs_h, left),
                _matmul(vecs_h, right).conj().swapaxes(-1, -2))
    return _matmul(_matmul(vecs, x * phi), vecs_h)


def _check_schedule_pairing(model: ControlModel, schedule: PulseSchedule) -> None:
    if schedule.n_streams != require_instance("model", model, ControlModel).n_streams:
        raise UsageError(
            f"schedule has {schedule.n_streams} streams but the model's "
            f"{len(model.controls)} controls pair into {model.n_streams}"
        )


def _require_segment_room(model: ControlModel, n_segments: int) -> None:
    """CapacityError unless n_segments × n_streams is within
    MAX_GRAPE_SEGMENTS and n_segments × the entries of the model's blocks
    within MAX_GRAPE_ENTRIES; `cavityq grape` checks it before it allocates."""
    require_capacity(f"n_segments {n_segments} × n_streams {model.n_streams}",
                     n_segments * model.n_streams, MAX_GRAPE_SEGMENTS, "stream segments")
    entries = sum(group.drift.size for group in model.block_layout)  # Σ B·b²
    require_capacity(f"n_segments {n_segments} × block entries {entries}",
                     n_segments * entries, MAX_GRAPE_ENTRIES, "segment block entries")


def _segment_phase(model: ControlModel, streams: Sequence[np.ndarray],
                   dt_s: float) -> float:
    """The bound d*bound*dt_s on the segment phases of the (C-ordered)
    amplitude streams, or NumericError when their segment Hamiltonians are
    out of range (an inf or NaN amplitude too). Their entries are at most
    max|H_drift| plus, per stream, 2*pi*(max|C_re| + max|C_im|)*a, with a
    the stream's largest |Re u| or |Im u|, read in place. The 2x2 closed
    form squares the entries, so twice that bound squared must be finite,
    naming the drift or the stream whose term overflows; the phase bound
    goes to `require_phase`, naming dt_s."""
    drift, scales = model._entry_scales
    terms = [("the drift", drift)]
    for s, stream in enumerate(streams):
        quads = stream.view(float)  # the (Re, Im) pairs of a C-ordered stream
        reach = max(float(quads.max()), -float(quads.min()))
        terms.append((f"stream {s}", 2 * math.pi * scales[s] * reach))
    bound = 0.0
    for what, term in terms:
        bound += term
        if not math.isfinite(2 * bound * bound):
            raise NumericError(f"{what}: the segment Hamiltonian's entries, up to "
                               f"{bound:.3g} rad/s, overflow when squared")
    phase = model.shape.total_dim * bound * dt_s
    require_phase(f"dt_s {dt_s!r}", phase, "segment phase d*max|H|*dt_s")
    return phase


def simulate_schedule(model: ControlModel, schedule: PulseSchedule,
                      psi0: StateVector | None = None,
                      return_propagator: bool = False):
    """Evolve under the schedule: ordered product of per-segment propagators.

    Returns the final StateVector, the full propagator as an Operator when
    `return_propagator` is set and psi0 is None, or a (state, propagator)
    tuple when both are requested.
    """
    _check_schedule_pairing(model, require_instance("schedule", schedule, PulseSchedule))
    return_propagator = require_flag("return_propagator", return_propagator)
    if psi0 is None and not return_propagator:
        raise UsageError("need psi0, return_propagator=True, or both")
    if psi0 is not None:
        require_on("psi0", psi0, StateVector, model.shape)
    prop = _propagator(model, schedule.streams, schedule.dt_s)
    out_state = None
    if psi0 is not None:
        out_state = StateVector(model.shape, prop @ psi0.amplitudes,
                                psi0.leakage)
    if return_propagator:
        op = Operator(model.shape, prop)
        return (out_state, op) if out_state is not None else op
    return out_state


def gate_fidelity(u: Operator, v: Operator) -> float:
    """|Tr(u^dag v)|^2 / d^2: phase-insensitive unitary overlap."""
    v = require_on("v", v, Operator, require_instance("u", u, Operator).shape)
    d = u.dim
    return float(abs(np.trace(u.matrix.conj().T @ v.matrix)) ** 2 / d**2)


def snap_average_fidelity(u: Operator, theta: Sequence[float]) -> float:
    """State-averaged fidelity of the qubit-ground block of `u` against the
    diagonal phase gate diag(e^{i theta_n}).

    Uses F_avg = (|Tr M|^2 + Tr(M^dag M)) / (d(d+1)) with
    M = S^dag U_gg, exact for a single-block (trace-decreasing) map; M is
    not formed: Tr M = sum e^{-i theta_k} U_kk and Tr(M^dag M) = sum |U_jk|^2.
    """
    n = _cavity_levels(require_instance("u", u, Operator).shape)
    th = _snap_phases(theta, n)
    ugg = u.matrix[:n, :n]
    trace = np.vdot(np.exp(1j * th), np.diagonal(ugg))
    return float((abs(trace) ** 2 + np.vdot(ugg, ugg).real) / (n * (n + 1)))


# ---------------------------------------------------------------------------
# shared line-search gradient ascent

_STEP_GROW = 1.3
_STEP_SHRINK = 0.5


def _ascend(objective, x0: np.ndarray, start, max_iter: int, tol: float, lr: float,
            memory: int = 0):
    """Maximize J(x) by a backtracking line search along steepest-ascent
    or, with memory > 0, quasi-Newton directions.

    objective(x) returns (J, J_raw, gradient), and start is objective(x0).
    A trial whose objective raises NumericError scores -inf; a start point
    raises in the caller. gradient() runs the adjoint half of that pass; it
    is called for the start point and for each accepted step, never for a
    rejected one.
    x keeps the dtype of x0, real or complex. A complex x is stepped on its
    (Re, Im) pairs, so gradient() returns dJ/dRe + i dJ/dIm for it.
    Accepts a step only if J strictly improves, so 1-J is nonincreasing;
    a rejected trial halves the step until x + step*d rounds to x or the
    step falls below 1e-18, however long the first trial.

    With memory = 0 every trial steps along the gradient, the first at lr,
    and each accepted step lets the next iteration start 1.3 times longer.
    With memory = m > 0 the same holds until a step is accepted whose pair
    (s, y) = (x_new - x_old, g_old - g_new) has s.y > 0; the last m such
    pairs then give the L-BFGS direction (Liu & Nocedal, Math. Program. 45,
    503 (1989)), and every iteration first tries the step 1 along it, so
    lr sets only the first trial. Pairs with s.y <= 0 are dropped. The
    objective must refuse a non-finite x.
    Returns (x, J_raw, iterations, converged, trace); trace rows are
    (iteration, 1-J, step), step the accepted length along the iteration's
    direction.
    """
    x = np.array(x0, copy=True)
    j, j_raw, gradient = start
    g = gradient()
    pairs = collections.deque(maxlen=memory)  # (s, y, 1/s.y), oldest first
    trace = [(0, 1.0 - j, 0.0)]
    iters = 0
    converged = 1.0 - j <= tol
    while not converged and iters < max_iter:
        steepest = not pairs
        d, step = (g, lr) if steepest else (_quasi_newton_direction(g, pairs), 1.0)
        accepted = False
        while True:
            x_try = x + step * d
            if x_try.tobytes() == x.tobytes():
                break  # x + step*d rounds to x, and so does every smaller step
            try:
                j_try, raw_try, gradient = objective(x_try)
            except NumericError:
                j_try = -math.inf
            if j_try > j:
                g_try = gradient()
                if memory:
                    s, y = x_try - x, g - g_try
                    sy = _real_dot(s, y)
                    if sy > 0:
                        pairs.append((s, y, 1.0 / sy))
                x, j, j_raw, g = x_try, j_try, raw_try, g_try
                accepted = True
                break
            step *= _STEP_SHRINK
            if step < 1e-18:
                break
        if not accepted:
            break  # stagnated: return best-so-far
        iters += 1
        trace.append((iters, 1.0 - j, step))
        if steepest:  # kept finite, as an inf step would halve forever
            lr = min(step * _STEP_GROW, sys.float_info.max)
        converged = 1.0 - j <= tol
    return x, j_raw, iters, bool(converged), tuple(trace)


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re(a^dag b): the dot product of the (Re, Im) pairs of complex
    arrays, the plain one of real arrays."""
    return float(np.vdot(a, b).real)


def _quasi_newton_direction(g: np.ndarray, pairs) -> np.ndarray:
    """H g by the L-BFGS two-loop recursion over pairs (s, y, 1/s.y),
    oldest first, with H0 = (s.y / y.y) I from the newest; H is positive
    definite, so H g is an ascent direction. An entry whose product
    overflows is inf or nan, without a warning, and so is every trial
    along it, which the objective refuses by raising NumericError."""
    with np.errstate(all="ignore"):
        q = g.copy()
        coeffs = []
        for s, y, rho in reversed(pairs):
            coeffs.append(rho * _real_dot(s, q))
            q -= coeffs[-1] * y
        _, y, rho = pairs[-1]
        r = q / (rho * _real_dot(y, y))
        for (s, y, rho), c in zip(pairs, reversed(coeffs)):
            r += (c - rho * _real_dot(y, r)) * s
    return r


def _state_objective(target: np.ndarray, psi_f: np.ndarray,
                     guard: tuple[int, ...], leak_weight: float):
    """State-preparation objective J = |<target|psi_f>|^2 minus leak_weight
    times the population on the guard indices.

    Returns (J, J_raw, seed): J_raw is the overlap term alone, and the
    adjoint seed satisfies dJ = 2 Re <seed|d psi_f>.
    """
    c = np.vdot(target, psi_f)
    j_raw = abs(c) ** 2
    leak = 0.0
    if guard:
        leak = float(np.sum(np.abs(psi_f[list(guard)]) ** 2))
    seed = c * target
    # one subtraction per listed index, as the leak sum counts a repeated
    # index once per listing (seed[guard] -= ... would count it once)
    for gidx in guard:
        seed[gidx] -= leak_weight * psi_f[gidx]
    return j_raw - leak_weight * leak, j_raw, seed


# ---------------------------------------------------------------------------
# GRAPE


@dataclass(frozen=True, eq=False)
class GrapeResult:
    """Optimized schedule plus the objective history.

    `fidelity` is the raw target fidelity of `schedule` (re-simulation
    reproduces it); trace rows (iteration, infidelity, step_size) report the
    optimized objective, which subtracts the guard-leakage penalty when one
    is active.
    """

    schedule: PulseSchedule
    fidelity: float
    infidelity: float
    iterations: int
    converged: bool
    trace: tuple[tuple[int, float, float], ...]

    def trace_csv(self) -> str:
        lines = ["iteration,infidelity,step_size"]
        for it, infid, step in self.trace:
            lines.append(f"{it},{infid:.12e},{step:.6e}")
        return "\n".join(lines) + "\n"


def _grape_pass(model: ControlModel, amps: np.ndarray, dt: float,
                target, psi0_vec, guard_indices, leak_weight):
    """One forward pass. amps: (S, M) complex in Hz, C-ordered.

    NumericError first if `_segment_phase` refuses amps. Runs per group of
    model.block_layout, on the blocks' segment eigensystems and one prefix
    scan P_j = U_j...U_0 of their propagators. Returns (j_total, j_raw,
    gradient): gradient() runs the adjoint half on those and gives the
    (S, M) complex dJ/dRe + i dJ/dIm in 1/Hz.
    """
    _segment_phase(model, amps, dt)
    d = model.shape.total_dim
    coeffs = _control_coefficients(amps)
    unitary_target = isinstance(target, Operator)
    passes = []
    for group in model.block_layout:
        h = group.drift + np.einsum("km,kbij->mbij", coeffs, group.controls)
        lam, vecs = hermitian_eigensystem(h)
        passes.append((group, lam, vecs, _prefix_products(eig_exponential(lam, vecs, dt))))
    if unitary_target:
        c = sum(np.vdot(target.matrix[group.grid], fwd[-1])
                for group, _, _, fwd in passes) / d
        j_raw = j_total = abs(c) ** 2
    else:
        psi_f = np.empty(d, dtype=complex)  # the blocks cover every index
        for group, _, _, fwd in passes:
            psi_f[group.index] = _matmul(
                fwd[-1], psi0_vec[group.index][..., None])[..., 0]
        j_total, j_raw, seed = _state_objective(target, psi_f,
                                                guard_indices, leak_weight)

    def gradient():
        # dJ = 2 Re Tr(adj_j dU_j) for a change dU_j of segment j alone, with
        # adj_j = P_{j-1} A U_{M-1}...U_{j+1} = P_{j-1} A U P_j^dag, as the
        # segments are unitary; A U = L R^dag, so adj_j = (P_{j-1} L)(P_j R)^dag
        val = 0.0
        for group, lam, vecs, fwd in passes:
            u = fwd[-1]
            if unitary_target:  # A = T^dag conj(c)/d: L = A U, R = I
                left = _matmul(target.matrix[group.grid].conj().swapaxes(-1, -2)
                               * (np.conj(c) / d), u)
                right = fwd
            else:  # A = psi0 seed^dag: L = psi0, R = U^dag seed
                left = psi0_vec[group.index][..., None]
                right = _matmul(fwd, _matmul(u.conj().swapaxes(-1, -2),
                                             seed[group.index][..., None]))
            left = np.concatenate([left[None], _matmul(fwd[:-1], left)])
            s = _frechet_adjoint(vecs, _phi_matrix(lam, dt), left, right)
            # Tr(C_k S_j) over the blocks: the dot np.tensordot would call
            val = val + np.dot(group.controls.reshape(len(group.controls), -1),
                               s.transpose(1, 3, 2, 0).reshape(-1, len(s)))
        # control k moves segment j's exponent along -2*pi*i*dt*C_k, so
        # dJ = 2 Re Tr(-2*pi*i*dt*C_k S_j) = 4*pi*dt Im Tr(C_k S_j)
        val = 4 * np.pi * dt * val.imag
        return val[0::2] + 1j * val[1::2]
    return j_total, j_raw, gradient


def _grape_problem(model: ControlModel, schedule: PulseSchedule, target,
                   psi0: StateVector | None, guard_indices, leak_weight):
    """Check a GRAPE problem against the model: the schedule's pairing,
    segment room and segment phase, the target, psi0 and the guard. Returns (target, psi0,
    guard, leak weight): an Operator target as given, with psi0 None, or a
    StateVector target and psi0, defaulting to the ground state, as
    amplitudes; the guard as basis indices of the model, which need a state
    target, and a real leak weight."""
    _check_schedule_pairing(model, schedule)
    _require_segment_room(model, schedule.n_segments)
    _segment_phase(model, schedule.streams, schedule.dt_s)  # before grape_optimize scales it
    require_on("target", target, (Operator, StateVector), model.shape)
    psi0_vec = None
    if isinstance(target, StateVector):
        psi0 = (basis_state(model.shape, [0] * len(model.shape.dims)) if psi0 is None
                else require_on("psi0", psi0, StateVector, model.shape))
        target, psi0_vec = np.asarray(target.amplitudes), np.asarray(psi0.amplitudes)
    guard = tuple(require_index("guard_indices entry", i, model.shape.total_dim)
                  for i in require_sequence("guard_indices", guard_indices))
    if guard and psi0_vec is None:
        raise UsageError("guard-leakage penalty applies to state targets only")
    return target, psi0_vec, guard, require_finite("leak_weight", leak_weight)


def grape_gradient(model: ControlModel, schedule: PulseSchedule,
                   target: Operator | StateVector,
                   psi0: StateVector | None = None,
                   guard_indices: Sequence[int] = (),
                   leak_weight: float = 1.0):
    """Objective and its exact gradient for the schedule's amplitudes.

    Returns (objective, grads) where grads is one complex array per stream,
    entry s,j = dJ/dRe(u) + i dJ/dIm(u) in 1/Hz. The objective is
    |Tr(target^dag U)/d|^2 for an Operator target, |<target|psi>|^2 minus
    the guard-leakage penalty for a StateVector target.
    """
    schedule = require_instance("schedule", schedule, PulseSchedule)
    tgt, psi0_vec, guard, leak_weight = _grape_problem(model, schedule, target, psi0,
                                                       guard_indices, leak_weight)
    amps = np.stack(schedule.streams)
    j_total, _, gradient = _grape_pass(model, amps, schedule.dt_s, tgt, psi0_vec,
                                       guard, leak_weight)
    return j_total, tuple(gradient())


def grape_optimize(model: ControlModel, target: Operator | StateVector,
                   schedule0: PulseSchedule,
                   iterations: int = 500, learning_rate: float = 0.2,
                   seed: int | None = None, *,
                   psi0: StateVector | None = None, tol: float = 1e-8,
                   guard_indices: Sequence[int] = (),
                   leak_weight: float = 1.0) -> GrapeResult:
    """Gradient-ascent pulse optimization from `schedule0`.

    The target is an Operator (fidelity |Tr(target^dag U)/d|^2) or a
    StateVector (fidelity |<target|psi(T)>|^2 from `psi0`, default ground,
    with leakage on `guard_indices` penalized at `leak_weight`). Steepest
    ascent: the first trial steps `learning_rate` times the gradient, a
    rejected trial halves the step and a kept one lets the next iteration
    start 1.3 times longer. Steps are accepted only on improvement, so the
    trace's objective infidelity is nonincreasing. A trial that `_grape_pass`
    refuses, by its segment phase bound d*max|H|*dt_s, fails; a start point
    (the schedule or the seeded draw) raises NumericError. When `seed` is
    given and every initial amplitude is zero, amplitudes start from a small
    seeded random draw (scale 1/(8 * duration)) to break symmetry.
    Deterministic throughout.
    """
    schedule0 = require_instance("schedule0", schedule0, PulseSchedule)
    tgt, psi0_vec, guard, leak_weight = _grape_problem(model, schedule0, target, psi0,
                                                       guard_indices, leak_weight)
    iterations = require_count("iterations", iterations)
    learning_rate = require_positive("learning_rate", learning_rate)
    tol = require_finite("tol", tol)
    seed = None if seed is None else require_count("seed", seed)
    dt = schedule0.dt_s
    amps0 = np.stack(schedule0.streams)

    # work in dimensionless per-segment drive areas w = 2*pi*u*dt
    area = 2 * np.pi * dt
    if not math.isfinite(area):
        raise NumericError(f"dt_s {dt!r} overflows the drive area 2*pi*dt_s")

    def objective(w: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            u = w / area  # an inf or NaN entry is _grape_pass's to refuse
        jt, j_raw, gradient = _grape_pass(model, u, dt, tgt, psi0_vec, guard, leak_weight)
        return jt, j_raw, lambda: gradient() / area  # chain rule u = w / area

    # with all-zero amps0, w0 / area is amps0 bit for bit, so the start
    # pass also decides the seeding
    w0 = amps0 * area
    start = objective(w0)
    if 1.0 - start[0] > tol and seed is not None and not np.any(amps0):
        rng = np.random.default_rng(seed)
        scale = area / (8.0 * schedule0.duration_s)
        w0 = scale * (rng.standard_normal(w0.shape)
                      + 1j * rng.standard_normal(w0.shape))
        start = objective(w0)
    w_best, j_raw, iters, converged, trace = _ascend(
        objective, w0, start, iterations, tol, learning_rate)
    schedule = PulseSchedule(dt, tuple(w_best / area), schedule0.carriers_hz)
    return GrapeResult(
        schedule=schedule,
        fidelity=float(j_raw),
        infidelity=float(1.0 - j_raw),
        iterations=iters,
        converged=converged,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# SNAP synthesis


def _cavity_levels(shape: HilbertShape) -> int:
    """N of a (2, N) qubit-cavity shape, qubit first; ShapeError otherwise."""
    dims = shape.dims
    if len(dims) != 2 or dims[0] != 2:
        raise ShapeError(f"expected a (2, N) qubit-cavity shape, got {dims}")
    return dims[1]


def _dispersive_chi_from_model(model: ControlModel) -> tuple[float, int]:
    """(chi_hz, n_levels) of a model equal to dispersive_model(chi_hz,
    n_levels), with or without the cavity drive: chi is read from the
    |e,1> drift entry, and the drift and controls[0:2] are compared with
    the model it names."""
    n = _cavity_levels(require_instance("model", model, ControlModel).shape)
    h = model.drift.matrix
    # the |e,1> entry; a one-level cavity has none, and dispersive_model refuses it
    chi_hz = float(-h[n + 1, n + 1].real / (2 * np.pi)) if n > 1 else math.nan
    reference = dispersive_model(chi_hz, n)
    if np.max(np.abs(h - reference.drift.matrix)) > 1e-9 * max(1.0, float(np.max(np.abs(h)))):
        raise UsageError(f"drift is not that of dispersive_model({chi_hz!r}, {n}), "
                         "with chi_hz read from its |e,1> entry")
    if any(np.max(np.abs(c.matrix - ref.matrix)) > 1e-12
           for c, ref in zip(model.controls[:2], reference.controls)):
        raise UsageError("controls[0:2] must be the qubit sigma_x, sigma_y quadratures")
    return chi_hz, n


def _require_envelope(chi_hz: float, n: int, duration_s: float, n_segments: int) -> None:
    """NumericError, before any array, unless the SNAP drive's squares stay
    finite and its phases pass `require_phase`. Names duration_s unless the
    envelope's squares are finite normal floats: the largest squared offset
    from a half's centre, (duration_s/4)^2 = 9 sigma^2, the Gaussian's
    sigma^2 = (duration_s/12)^2, and the summed squared drive, below
    n_segments*pi^2/sigma^2 (each half's discrete area sum(e)*dt exceeds
    sigma, so its peak drive 4*pi*env is below pi/sigma). Names chi_hz and
    duration_s unless a level's phase passes: the carrier
    2*pi*chi_hz*level*t, below 2*pi*chi_hz*(n-1)*duration_s, plus the chirp
    c_l times the area, which is below duration_s*pi^2/sigma^2 =
    144*pi^2/duration_s, with |c_l| <= H_{n-1}/(4*pi*chi_hz)."""
    sigma = duration_s / (2 * _SNAP_SIGMA_DIVISOR)
    var = sigma * sigma
    if not math.isfinite(9 * var):
        raise NumericError(f"duration_s {duration_s!r}: the envelope's squared offsets "
                           "(duration_s/4)**2 overflow")
    if not (var >= sys.float_info.min and math.isfinite(n_segments * math.pi**2 / var)):
        raise NumericError(f"duration_s {duration_s!r}: the envelope's sigma**2 = "
                           f"(duration_s/12)**2 = {var:.3g} s^2 is too small: the summed "
                           f"squared drive n_segments*pi**2/sigma**2 overflows")
    carrier = 2 * math.pi * chi_hz * (n - 1) * duration_s
    stark = sum(1 / k for k in range(1, n)) / (4 * math.pi * chi_hz)  # max |c_l|
    require_phase(f"chi_hz {chi_hz!r}, duration_s {duration_s!r}",
                  carrier + stark * (144 * math.pi**2 / duration_s),
                  "carrier plus AC-Stark chirp phase")


def _snap_drive_samples(chi_hz: float, n: int, phases1: np.ndarray,
                        phases2: np.ndarray, duration_s: float,
                        n_segments: int) -> np.ndarray:
    """Midpoint-sampled complex drive (Hz) for two simultaneous
    number-selective pi-pulse blocks with per-sector AC-Stark chirps. Sector
    l is shifted by Omega(t)^2 c_l, c_l = sum_{m != l} 1/(4 pi chi (l - m))
    = (H_l - H_{n-1-l}) / (4 pi chi) with H_k the harmonic numbers, so its
    chirp is c_l cumsum(Omega^2) dt: one cumulative sum for all levels.

    Each half is added in chunks of _CHUNK_ENTRIES // 4 segments (4,096; 2,048
    and 8,192 were 11 % and 3 % slower), with one Gaussian and one phase per
    level, and only u spans all segments. Each Gaussian is normalized by its
    whole half's sum, and the cumsum, a sequential fold, is carried across
    chunks, so every sample is bitwise the whole-array one."""
    dt = duration_s / n_segments
    t_half = duration_s / 2
    sigma = t_half / _SNAP_SIGMA_DIVISOR

    def gaussian(start: int, stop: int, centre: float) -> tuple[np.ndarray, np.ndarray]:
        tm = (np.arange(start, stop) + 0.5) * dt  # the segments' midpoints
        return tm, np.exp(-((tm - centre) ** 2) / (2 * sigma**2))

    # midpoints rise with the index, so the first half is the segments [0, mid)
    mid = bisect.bisect_left(range(n_segments), t_half, key=lambda k: (k + 0.5) * dt)
    halves = [(0, mid, t_half / 2, phases1), (mid, n_segments, t_half + t_half / 2, phases2)]
    scales = [0.25 / (gaussian(first, stop, centre)[1].sum() * dt)  # exact pi rotations
              for first, stop, centre, _ in halves]
    harmonic = np.concatenate(([0.0], np.cumsum(1 / np.arange(1.0, n))))  # H_0 ... H_{n-1}
    stark = (harmonic - harmonic[::-1]) / (4 * np.pi * chi_hz)  # c_l
    u = np.zeros(n_segments, dtype=complex)
    carried = 0.0  # cumsum(Omega^2) up to the chunk
    for (first, last, centre, phases), scale in zip(halves, scales):
        for start in range(first, last, _CHUNK_ENTRIES // 4):
            stop = min(start + _CHUNK_ENTRIES // 4, last)
            tm, env = gaussian(start, stop, centre)
            env *= scale
            omega_sq = (4 * np.pi * env) ** 2
            omega_sq[0] += carried
            area = np.cumsum(omega_sq)
            carried = area[-1]
            area *= dt
            for level in range(n):  # one level at a time, in level order, which fixes the sum's rounding
                u[start:stop] += env * np.exp(
                    1j * (phases[level] + 2 * np.pi * chi_hz * level * tm + stark[level] * area))
    return u


def synthesize_snap_pulse(model: ControlModel, theta: Sequence[float],
                          duration_s: float, *, dt_s: float | None = None,
                          precompensate: bool = True,
                          enforce_bound: bool = True) -> PulseSchedule:
    """Qubit drive schedule implementing snap(theta) on the cavity.

    Two simultaneous number-selective pi-pulse blocks (Gaussian envelopes,
    one tone per occupied level at detuning -n*chi plus an AC-Stark chirp):
    the first at phase 0, the second at pi - theta_n, leaving the geometric
    phase theta_n on each |g, n> while returning the qubit to ground. A
    single deterministic pre-compensation pass absorbs the residual
    diagonal phases into the second block.

    Durations below 2*pi/chi lack the spectral selectivity to separate
    sectors; by default these raise a bandwidth error. `enforce_bound=False`
    permits them, for degradation studies only. The segments times the
    model's streams are capped at MAX_SNAP_SEGMENTS.
    """
    chi_hz, n = _dispersive_chi_from_model(model)
    th = _snap_phases(theta, n)
    duration_s = require_positive("duration_s", duration_s)
    precompensate = require_flag("precompensate", precompensate)
    bound = 2 * np.pi / chi_hz
    if require_flag("enforce_bound", enforce_bound) and duration_s < bound * (1 - 1e-12):
        raise BandwidthError(
            f"duration {duration_s:.3e} s is below the selective-drive bound "
            f"2*pi/chi = {bound:.3e} s"
        )
    if dt_s is None:
        count, least = duration_s * chi_hz * _SNAP_SEGMENT_DENSITY, _SNAP_MIN_SEGMENTS
    else:
        count, least = duration_s / require_positive("dt_s", dt_s), 2
    # an overflowed count stays a float, which the cap refuses
    n_segments = max(least, round(count) if math.isfinite(count) else count)
    require_capacity(f"n_segments {n_segments} × n_streams {model.n_streams}",
                     n_segments * model.n_streams, MAX_SNAP_SEGMENTS, "stream segments")
    _require_envelope(chi_hz, n, duration_s, n_segments)

    phases1 = np.zeros(n)
    phases2 = np.pi - th

    def build(p2: np.ndarray) -> PulseSchedule:
        u = _snap_drive_samples(chi_hz, n, phases1, p2, duration_s, n_segments)
        streams = [u] + [np.zeros(n_segments, dtype=complex)
                         for _ in range(model.n_streams - 1)]
        return PulseSchedule(duration_s / n_segments, tuple(streams),
                             tuple(0.0 for _ in range(model.n_streams)))

    if not precompensate:
        return build(phases2)
    # the uncompensated schedule is gone before the compensated one is built
    u_op = simulate_schedule(model, build(phases2), return_propagator=True)
    measured = np.angle(np.diag(u_op.matrix[:n, :n]) * np.exp(-1j * th))
    return build(phases2 + measured)


# ---------------------------------------------------------------------------
# SNAP/displacement sequence state preparation

# (s, y) pairs behind the sequence optimizer's quasi-Newton directions. On
# the benchmark's 20 seqprep jobs of seeds 1-10 (200 iterations, tol 1e-3)
# m = 3, 5, 8 and 10 took a median of 49.5, 40.5, 39.5 and 39.5 forward
# passes (974, 887, 820 and 784 in all; steepest ascent 278 and 5,341),
# every job converging, and 10 ran the 20 jobs fastest
_SEQUENCE_MEMORY = 10


@dataclass(frozen=True, eq=False)
class SequencePrepResult:
    """Optimized displacement/SNAP alternation for state preparation.

    The sequence is D(alphas[B]) S(thetas[B-1]) ... S(thetas[0]) D(alphas[0])
    applied to vacuum on `n_levels` Fock levels (the target padded with
    `guard_levels` empty levels on top). `fidelity` is the raw target overlap
    |<t|psi>|^2; trace rows report the penalized objective's infidelity.
    """

    alphas: tuple[complex, ...]
    thetas: np.ndarray
    n_levels: int
    guard_levels: int
    fidelity: float
    infidelity: float
    iterations: int
    converged: bool
    trace: tuple[tuple[int, float, float], ...]

    def __post_init__(self) -> None:
        arr = np.array(self.thetas, dtype=float, copy=True, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "thetas", arr)
        object.__setattr__(self, "alphas",
                           tuple(complex(a) for a in self.alphas))


def _sequence_pass(alphas: np.ndarray, thetas: np.ndarray, target: np.ndarray,
                   directions: np.ndarray, guard: tuple[int, ...], leak_weight: float):
    """Forward pass over the displacement/SNAP alternation. Returns
    (j_total, j_raw, gradient): gradient() runs the adjoint pass on the kept
    states and gives (dJ/dRe(alpha) + i dJ/dIm(alpha), dJ/dtheta).
    directions stacks the exponent's derivatives along Re(alpha) and
    Im(alpha), [a† − a, i(a† + a)]. NumericError, before any exponential,
    when max|theta| fails `require_phase`, or `_displacement_factors`
    refuses max|alpha|*max(Lambda)."""
    blocks = thetas.shape[0]
    n = len(target)
    require_phase("theta", float(np.max(np.abs(thetas))), "SNAP phase max|theta|")
    # D(alpha) = exp(-i G), G = (R Q) diag(|alpha| Lambda) (R Q)^dag as in gates
    rot, lam, quad_vecs = _displacement_factors(alphas, n)
    vecs = rot[:, :, None] * quad_vecs
    disps = eig_exponential(lam, vecs, 1.0)
    snaps = np.exp(1j * thetas)
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    pre = []            # state entering each displacement
    for k in range(blocks + 1):
        pre.append(psi)
        psi = disps[k] @ psi
        if k < blocks:
            psi = snaps[k] * psi
    pre = np.stack(pre)
    j_total, j_raw, seed = _state_objective(target, psi, guard, leak_weight)

    def gradient():
        post = [None] * (blocks + 1)    # adjoint leaving each displacement
        chi_vec = seed
        disps_h, snaps_h = disps.conj().swapaxes(-1, -2), snaps.conj()
        for k in range(blocks, -1, -1):
            if k < blocks:
                chi_vec = snaps_h[k] * chi_vec
            post[k] = chi_vec
            chi_vec = disps_h[k] @ chi_vec
        post = np.stack(post)
        # SNAP k outputs pre[k+1], where the adjoint is snaps[k] * post[k]; the
        # output moves along i * pre[k+1] with theta_k
        g_theta = 2 * (1j * np.conj(snaps * post[:-1]) * pre[1:]).real
        s = _frechet_adjoint(vecs, _phi_matrix(lam, 1.0), pre[..., None],
                             post[..., None])
        val = 2 * np.einsum("qij,kji->qk", directions, s).real
        return val[0] + 1j * val[1], g_theta
    return j_total, j_raw, gradient


def optimize_snap_displacement_sequence(
        target: StateVector | Sequence[complex], blocks: int = 8,
        seed: int = 0, iterations: int = 2000, learning_rate: float = 0.1,
        *, tol: float = 1e-3, guard_levels: int = 1,
        leak_weight: float = 1.0) -> SequencePrepResult:
    """Optimize an alternating displacement/SNAP sequence that prepares
    `target` from vacuum on a single mode.

    The simulation pads `guard_levels` empty Fock levels above the target's
    truncation and penalizes their population (weight `leak_weight`) so the
    result stays physical. Analytic gradients feed grape_optimize's
    backtracking line search, here along quasi-Newton (L-BFGS) directions
    from the last _SEQUENCE_MEMORY kept steps, so `learning_rate` sets only
    the first trial; each later iteration first tries the full quasi-Newton
    step. Trace rows are (iteration, infidelity, step), step the accepted
    length along the iteration's direction. A trial that `_sequence_pass`
    refuses, by its displacement or SNAP phase, fails.
    Deterministic for a given seed.
    """
    if isinstance(target, StateVector):
        if len(target.shape.dims) != 1:
            raise ShapeError("sequence preparation targets a single mode")
        target = target.amplitudes
    tvec = require_array("target", target, (None,), least=2)
    nrm = np.linalg.norm(tvec)
    if nrm < 1e-12:
        raise UsageError("target state is null")
    tvec = tvec / nrm
    blocks = require_count("blocks", blocks, 1)
    guard_levels = require_count("guard_levels", guard_levels)
    iterations = require_count("iterations", iterations)
    seed = require_count("seed", seed)
    learning_rate = require_positive("learning_rate", learning_rate)
    tol = require_finite("tol", tol)
    leak_weight = require_finite("leak_weight", leak_weight)
    n = len(tvec) + guard_levels
    padded = np.zeros(n, dtype=complex)
    padded[: len(tvec)] = tvec
    guard = tuple(range(len(tvec), n))
    a_mat = annihilation(n).matrix
    adag = a_mat.conj().T
    # exponent directions d/dRe(alpha) = a^dag - a, d/dIm(alpha) = i(a^dag + a)
    directions = np.stack([adag - a_mat, 1j * (adag + a_mat)])

    rng = np.random.default_rng(seed)
    alphas0 = 0.3 * (rng.standard_normal(blocks + 1)
                     + 1j * rng.standard_normal(blocks + 1))
    thetas0 = 0.1 * rng.standard_normal((blocks, n))

    def pack(al: np.ndarray, th: np.ndarray) -> np.ndarray:
        return np.concatenate([al.real, al.imag, th.ravel()])

    def unpack(x: np.ndarray):
        al = x[: blocks + 1] + 1j * x[blocks + 1: 2 * (blocks + 1)]
        th = x[2 * (blocks + 1):].reshape(blocks, n)
        return al, th

    def objective(x: np.ndarray):
        jt, j_raw, gradient = _sequence_pass(*unpack(x), padded, directions, guard,
                                             leak_weight)
        return jt, j_raw, lambda: pack(*gradient())

    x0 = pack(alphas0, thetas0)  # in range: max(Lambda) < 91 within the level cap
    x_best, j_raw, iters, converged, trace = _ascend(
        objective, x0, objective(x0), iterations, tol, learning_rate, _SEQUENCE_MEMORY)
    al, th = unpack(x_best)
    return SequencePrepResult(
        alphas=tuple(al),
        thetas=th,
        n_levels=n,
        guard_levels=guard_levels,
        fidelity=float(j_raw),
        infidelity=float(1.0 - j_raw),
        iterations=iters,
        converged=converged,
        trace=trace,
    )
