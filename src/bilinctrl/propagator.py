"""Galerkin simulation of the bilinear Schrodinger equation.

The truncated system is c' = -i (Lambda + u(t) B) c with Lambda the diagonal
eigenvalue matrix and B the coupling matrix of the multiplication operator
psi -> mu psi.  Time stepping is Strang splitting with exact diagonal phases
and an eigendecomposed B-exponential, so every step is exactly unitary.

The Strang product is evaluated in the eigenbasis B = V diag(w) V^H.  With
H = e^{-i h Lambda/2} and D_m = e^{-i h u_m w} (u_m the control at the midpoint
of step m), the half-phases of adjacent steps merge into one precomputed
unitary W = V^H H^2 V:

    c_n = H V D_{n-1} W ... W D_0 V^H H c_0.

Starting from z = V^H H^{-1} c_0, every step is z <- D_m (W z), a diagonal
phase times one matvec, and c_{m+1} = H V z.  The same kernel runs a block Z
of M rows, one matrix product per step: row 0 is the state under a control
u, rows 1..M-2 the differences Psi(u + e v) - Psi(u) of the flows under
u + e v from it, and row M-1 the discrete tangent along v.  With Y = Z W^T a
step is Z <- D_m * Y, then Z[1:] += G_m * Y[0], where row i of D_m holds the
phases of row i's control and G_m the gaps D_m(u + e v) - D_m(u) =
D_m(u) (e^{-i h e v_m w} - 1), from sines, and -i h v_m w D_m(u) for the
tangent.  A difference row never cancels against the state, so it keeps
its relative accuracy however small e is.  A block's Z W^T is one real GEMM
of Z's interleaved (re, im) view and the 2N x 2N real embedding of W^T:
1.7-2x faster than the complex product at N = 65, slower from N ~ 220 on,
where the embedding outgrows the cache.  The rows D_m (and G_m) are
computed by vectorised ufuncs a block of steps at a time into reused
buffers of about _PHASE_BLOCK rows of N, never as one table over all steps.
Finiteness is checked once, on the final state: NaN and inf never become
finite again under these products, so the first non-finite step is searched
for only when that check fails.

A vanishing control (every u_m exactly zero) makes every D_m the identity,
so the product collapses to H^{2n} = e^{-i Lambda T}: propagate returns that
free flow in closed form, e^{-i Lambda t_m} c_0 at every grid time, and runs
no step.

An exponential-sum control sum_j a_j e^{i f_j t} is evaluated on its grid
t_m = t0 + m h as one factored-phase product: with B = ceil(sqrt(n)) and
m = q B + r, e^{i f t_m} = e^{i f (t0 + q B h)} e^{i f r h}, one complex GEMM
and about 2 J sqrt(n) exps for J terms, accurate to the rounding of f t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError, NumericError
from .integrals import _exp_integral, poly_exp_integral
from .potentials import PiecewisePotential, _coupling_block
from .spectral import (SobolevNorm, SpectralModel, eigenvalue, index_window,
                       window_position)

DEFAULT_STEPS = 4096

_PHASE_BLOCK = 256

# grid steps per interpolation panel of a sampled control in moments()
_PANEL = 8

_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Spectral coefficients over the model's standard index window."""

    model: SpectralModel
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if not np.all(np.isfinite(coeffs)):
            raise NumericError("non-finite state coefficients")
        # the periodic window -M..M is odd, so an even count names no modes
        if index_window(self.model, coeffs.size).size != coeffs.size:
            raise DomainError(f"{coeffs.size} coefficients match no index "
                              f"window of the {self.model.kind.value} model")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def size(self) -> int:
        return self.coefficients.size

    @property
    def indices(self) -> np.ndarray:
        return index_window(self.model, self.size)

    def coefficient(self, k: int) -> complex:
        return complex(self.coefficients[window_position(self.model, self.size,
                                                         k)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(other.coefficients, self.coefficients))

    def __add__(self, other):
        return StateVector(self.model, self.coefficients + other.coefficients)

    def __sub__(self, other):
        return StateVector(self.model, self.coefficients - other.coefficients)

    def scaled(self, factor) -> "StateVector":
        return StateVector(self.model, factor * self.coefficients)


def basis_state(model: SpectralModel, N: int, k: int) -> StateVector:
    pos = window_position(model, N, k)
    coeffs = np.zeros(index_window(model, N).size, dtype=complex)
    coeffs[pos] = 1.0
    return StateVector(model, coeffs)


@dataclass(frozen=True)
class ControlSignal:
    """Real control on a uniform time grid, optionally carried in exponential
    -sum form sum_j amp_j exp(i freq_j t) (conjugate-symmetric terms).

    __call__ interpolates the samples linearly, while moments() and the free
    linearization integrate their 8-step panel interpolant.  Terms are
    sampled at the grid and its midpoints as one factored-phase product (to
    the rounding of f t), and summed directly at an arbitrary t."""

    horizon: float
    samples: np.ndarray
    parametric: tuple | None = None

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise DomainError("horizon must be positive")
        samples = np.asarray(self.samples, dtype=float)
        if samples.size < 2:
            raise DomainError("need at least two samples")
        if not np.all(np.isfinite(samples)):
            raise NumericError("non-finite control samples")
        object.__setattr__(self, "samples", samples)
        if self.parametric is not None:
            terms = tuple((float(f), complex(a)) for f, a in self.parametric)
            object.__setattr__(self, "parametric", terms)

    @property
    def n_steps(self) -> int:
        return self.samples.size - 1

    @property
    def step(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.samples.size)

    def __call__(self, t):
        if self.parametric is not None:
            return _evaluate_terms(self.parametric, t)
        tarr = np.asarray(t, dtype=float)
        out = np.interp(tarr, self.times, self.samples)
        return float(out) if np.ndim(t) == 0 else out

    def midpoint_values(self) -> np.ndarray:
        if self.parametric is not None:
            return _grid_terms(self.parametric, 0.5 * self.step, self.step,
                               self.n_steps)
        return 0.5 * (self.samples[:-1] + self.samples[1:])

    def vanishes(self) -> bool:
        """Every midpoint value is exactly zero: the Strang flow is free."""
        return not np.any(self.midpoint_values())

    def l2_norm(self) -> float:
        """Trapezoidal L2(0, T) norm of the sampled signal."""
        sq = self.samples**2
        return float(np.sqrt(np.trapezoid(sq, dx=self.step)))

    @staticmethod
    def zero(horizon: float, n_steps: int = DEFAULT_STEPS) -> "ControlSignal":
        return ControlSignal(horizon, np.zeros(n_steps + 1), ((0.0, 0.0j),))

    @staticmethod
    def constant(value: float, horizon: float,
                 n_steps: int = DEFAULT_STEPS) -> "ControlSignal":
        return ControlSignal(horizon, np.full(n_steps + 1, float(value)),
                             ((0.0, complex(value)),))

    @staticmethod
    def from_terms(terms, horizon: float,
                   n_steps: int = DEFAULT_STEPS) -> "ControlSignal":
        """Build from (frequency, amplitude) pairs; the sampled signal must
        be real, so terms must be conjugate-symmetric."""
        if n_steps < 1:
            raise DomainError("need at least two samples")
        terms = tuple((float(f), complex(a)) for f, a in terms)
        samples = _grid_terms(terms, 0.0, horizon / n_steps, n_steps + 1)
        return ControlSignal(horizon, samples, terms)


def _evaluate_terms(terms, t):
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = np.zeros(tarr.shape, dtype=complex)
    for f, a in terms:
        vals += a * np.exp(1j * f * tarr)
    out = _real_signal(vals)
    return float(out[0]) if np.ndim(t) == 0 else out


def _grid_terms(terms, t0: float, h: float, n: int) -> np.ndarray:
    """sum_j a_j e^{i f_j t} at the n grid points t_m = t0 + m h.

    With B = ceil(sqrt(n)) and m = q B + r the phase factors,
    e^{i f (t0 + m h)} = e^{i f (t0 + q B h)} e^{i f r h}, so the values are
    the entries of one product P R^T, P[q, j] = a_j e^{i f_j (t0 + q B h)}
    and R[r, j] = e^{i f_j r h}: about 2 J sqrt(n) exps for J terms, not J n.
    A value is off by about eps (1 + max|f| t) sum|a|, the floor that
    rounding f t sets for any evaluation of the sum.
    """
    f = np.asarray([f for f, _ in terms], dtype=float)
    a = np.asarray([a for _, a in terms], dtype=complex)
    B = math.isqrt(n - 1) + 1
    starts = t0 + h * (B * np.arange(-(-n // B)))
    P = a * np.exp(1j * np.multiply.outer(starts, f))
    R = np.exp(1j * np.multiply.outer(h * np.arange(B), f))
    return _real_signal((P @ R.T).ravel()[:n])


def _real_signal(vals: np.ndarray) -> np.ndarray:
    if np.max(np.abs(vals.imag), initial=0.0) > 1e-10 * max(
            1.0, float(np.max(np.abs(vals.real), initial=0.0))):
        raise NumericError("parametric control evaluates to a complex signal")
    return vals.real


def moments(u: ControlSignal, frequencies) -> np.ndarray:
    """integral_0^T u(s) e^{i omega s} ds for each omega.

    Exact for parametric controls sum_j a_j e^{i f_j t}: one product
    E_T(omega_i + f_j) @ a of the exponential integral E_T(w) =
    integral_0^T e^{i w s} ds.  Sampled controls use a Filon-type rule:
    the polynomial through the samples of each panel of _PANEL steps (the
    last panel possibly shorter) is integrated in closed form, exact phase
    included.  Full panels are congruent, so with step h the rule is

        sum_p e^{i omega mid_p} sum_j w_j(omega) u_{p _PANEL + j},
        w_j(omega) = h int_{-_PANEL/2}^{_PANEL/2} L_j(x) e^{i omega h x} dx,

    with mid_p the panel midpoints and L_j the Lagrange basis on the nodes
    -_PANEL/2, ..., _PANEL/2.
    """
    omegas = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if u.parametric is not None:
        f = np.asarray([f for f, _ in u.parametric], dtype=float)
        a = np.asarray([a for _, a in u.parametric], dtype=complex)
        return _exp_integral(np.add.outer(omegas, f), u.horizon) @ a
    h = u.step
    full, rest = divmod(u.n_steps, _PANEL)
    out = np.zeros(omegas.shape, dtype=complex)
    # the full panels, then a shorter last panel of its own size
    for k, first, count in ((_PANEL, 0, full),
                            (rest, full * _PANEL, int(rest > 0))):
        if count == 0:
            continue
        panels = np.lib.stride_tricks.sliding_window_view(
            u.samples[first:first + count * k + 1], k + 1)[::k]
        mids = h * (first + k * np.arange(count) + 0.5 * k)
        phases = np.exp(1j * np.multiply.outer(omegas, mids))
        out += np.sum(_panel_weights(k, h, omegas) * (phases @ panels),
                      axis=-1)
    return out


def _panel_weights(k: int, h: float, omegas: np.ndarray) -> np.ndarray:
    """w[i, j] = h integral_{-k/2}^{k/2} L_j(x) e^{i omegas_i h x} dx for the
    Lagrange basis L_j on the nodes -k/2, ..., k/2 of a k-step panel."""
    nodes = np.arange(k + 1) - 0.5 * k
    # lagrange[n, j] is the x^n coefficient of L_j
    lagrange = np.linalg.inv(np.vander(nodes, increasing=True))
    return h * poly_exp_integral(lagrange, nodes[0], nodes[-1], h * omegas)


def coupling_matrix(mu: PiecewisePotential, model: SpectralModel,
                    N: int) -> np.ndarray:
    """Dense Galerkin matrix B[k_row, j_col] = <mu phi_j, phi_k>."""
    ks = index_window(model, N)
    B = _coupling_block(mu, model, ks, ks)
    defect = float(np.max(np.abs(B - B.conj().T)))
    if defect > _HERMITICITY_TOL:
        raise ModelError(f"coupling matrix non-Hermitian (defect {defect:.2e})")
    return 0.5 * (B + B.conj().T)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (n_times, N)
    model: SpectralModel

    def state(self, i: int) -> StateVector:
        return StateVector(self.model, self.states[i])

    @property
    def final(self) -> StateVector:
        return self.state(-1)

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


class Propagator:
    """Precomputed spectral data for one (model, potential, truncation)."""

    def __init__(self, model: SpectralModel, mu: PiecewisePotential, N: int):
        self.model = model
        self.mu = mu
        self.N = int(N)
        self.indices = index_window(model, N)
        self.lam = eigenvalue(model, self.indices)
        self.B = coupling_matrix(mu, model, N)
        self._w, self._V = np.linalg.eigh(self.B)

    def _split_factors(self, u: ControlSignal, v: ControlSignal | None = None,
                       epsilons=(), reverse: bool = False, mids=None):
        """Factors of the Strang product in the eigenbasis of B: the
        half-phase H, the transpose W^T of the merged unitary W = V^H H^2 V,
        and a callable that yields (m0, D, G) for a block of steps m0,
        m0 + 1, ..., in reused buffers.

        For u alone, D[j] is the phase row D_{m0+j} of u and G is None, and
        reverse negates the generator and reads u backwards.  With a
        direction v (forward only), D[j] holds the phase rows of u, of u + e v for each e in
        epsilons and of u again (the tangent row), and G[j] the gaps
        D(u + e v) - D(u) for each e and the derivative -i h v w D(u).
        mids, when given, are the midpoint values of u."""
        sign = -1.0 if reverse else 1.0
        h = u.step
        mids = u.midpoint_values() if mids is None else mids
        if reverse:
            mids = mids[::-1]
        half = np.exp(-0.5j * sign * h * self.lam)
        WT = ((self._V.conj().T * half**2) @ self._V).T
        w, n = self._w, mids.size

        if v is None:
            def phase_blocks():
                # one buffer for every block: each D is overwritten by the next
                buf = np.empty((min(n, _PHASE_BLOCK), w.size), dtype=complex)
                for m0 in range(0, n, _PHASE_BLOCK):
                    theta = sign * h * mids[m0:m0 + _PHASE_BLOCK]
                    yield m0, _phase_rows(theta, w, buf[:theta.size]), None

            return half, WT, phase_blocks

        eps = np.asarray(epsilons, dtype=float)[:, None]
        k = eps.size
        vmids = v.midpoint_values()
        # D has k + 2 rows a step and G k + 1: a block holds about as many
        # rows of N as the one-control buffer
        steps = max(1, _PHASE_BLOCK // (2 * k + 3))

        def phase_blocks():
            Dbuf = np.empty((min(n, steps), k + 2, w.size), dtype=complex)
            Gbuf = np.empty((min(n, steps), k + 1, w.size), dtype=complex)
            for m0 in range(0, n, steps):
                theta = h * mids[m0:m0 + steps]
                D, G = Dbuf[:theta.size], Gbuf[:theta.size]
                d = _phase_rows(theta, w, D[:, 0])
                # h v_m w, the phase angle per unit of e along v
                psi = np.multiply.outer(h * vmids[m0:m0 + steps], w)
                # e^{-i a} - 1 = -2 sin^2(a/2) - i sin(a), no cancellation,
                # for every e at once
                gaps = G[:, :k]
                gaps.real = -2.0 * np.sin(0.5 * eps * psi[:, None])**2
                gaps.imag = -np.sin(eps * psi[:, None])
                gaps *= d[:, None]
                np.add(d[:, None], gaps, out=D[:, 1:k + 1])
                # B commutes with its own exponential, so the derivative of
                # exp(-i(u + e v) h B) in e is -i v h B times it: -i h v_m w
                # times the phase row in the eigenbasis
                np.multiply(-1j * psi, d, out=G[:, k])
                D[:, k + 1] = d
                yield m0, D, G

        return half, WT, phase_blocks

    def propagate(self, psi0: StateVector, u: ControlSignal,
                  store_trajectory: bool = True,
                  reverse: bool = False) -> Trajectory:
        """Strang-split evolution; with reverse=True the generator is negated
        and the control read backwards, which inverts the forward product
        exactly (time reversibility).  A vanishing control gives the exact
        free flow e^{-/+ i Lambda t} c_0 at the grid times, with no steps."""
        if psi0.size != self.indices.size:
            raise DomainError("state truncation does not match propagator")
        times = u.times if store_trajectory else np.asarray([0.0, u.horizon])
        mids = u.midpoint_values()
        if not np.any(mids):
            states = np.multiply.outer(times,
                                       (1j if reverse else -1j) * self.lam)
            np.exp(states, out=states)
            states *= psi0.coefficients
            return Trajectory(times=times, states=states, model=self.model)
        half, WT, phase_blocks = self._split_factors(u, reverse=reverse,
                                                     mids=mids)
        n = u.n_steps
        states = np.empty((n + 1 if store_trajectory else 2, psi0.size),
                          dtype=complex)
        states[0] = psi0.coefficients
        z0 = self._V.conj().T @ (half.conj() * psi0.coefficients)
        rows = states[1:] if store_trajectory else None
        z = _strang_steps(WT, phase_blocks(), z0, rows)
        if not np.all(np.isfinite(z)):
            _strang_steps(WT, phase_blocks(), z0, checked=True)
        if store_trajectory:
            # c_{m+1} = H V z_m, in place, a block of rows at a time
            for a in range(1, n, _PHASE_BLOCK):
                block = states[a:min(a + _PHASE_BLOCK, n)]
                block[...] = (block @ self._V.T) * half
        # the last row as endpoint computes it, so the two agree bitwise
        states[-1] = half * (self._V @ z)
        return Trajectory(times=times, states=states, model=self.model)

    def endpoint(self, psi0: StateVector, u: ControlSignal) -> StateVector:
        return self.propagate(psi0, u, store_trajectory=False).final

    def propagate_linearized(self, v: ControlSignal, l: int,
                             u_base: ControlSignal | None = None
                             ) -> StateVector:
        """Endpoint of the linearization around the free eigensolution
        (u_base None or vanishing) or around a general base control.

        Around the free flow the endpoint is the closed-form Duhamel formula

            <xi(T), phi_k> = -i e^{-i lam_k T} <mu phi_l, phi_k>
                             * integral_0^T e^{i(lam_k - lam_l) s} v(s) ds,

        with the integrals from moments(): exact for a parametric v, and for
        a sampled v the exact-phase integral of its _PANEL-step panel
        interpolant (a Filon-type rule).  Around a nonzero base control
        the update is the exact derivative of the discrete Strang flow, which
        is what a finite-difference check of the endpoint map differentiates.
        """
        self.model.check_index(l)
        if u_base is None or u_base.vanishes():
            return self._linearized_free(v, l)
        psi0 = basis_state(self.model, self.N, l)
        return StateVector(self.model,
                           self._endpoint_differences(psi0, u_base, v)[-1])

    def _linearized_free(self, v: ControlSignal, l: int) -> StateVector:
        b = self.B[:, window_position(self.model, self.N, l)]
        integral = moments(v, self.lam - eigenvalue(self.model, l))
        return StateVector(self.model, -1j * np.exp(-1j * self.lam * v.horizon)
                           * b * integral)

    def _endpoint_differences(self, psi0: StateVector, u: ControlSignal,
                              v: ControlSignal, epsilons=()) -> np.ndarray:
        """Rows Psi(u), Psi(u + e v) - Psi(u) for each e in epsilons, and
        the discrete tangent dPsi(u) v, with Psi the endpoint map of the
        discrete flow from psi0, from one batched pass over the steps."""
        if psi0.size != self.indices.size:
            raise DomainError("state truncation does not match propagator")
        if v.samples.size != u.samples.size or v.horizon != u.horizon:
            raise DomainError("controls live on different grids")
        half, WT, phase_blocks = self._split_factors(u, v, epsilons)
        # the state row starts from psi0, the difference and tangent rows
        # from zero
        Z = np.zeros((np.size(epsilons) + 2, psi0.size), dtype=complex)
        Z[0] = self._V.conj().T @ (half.conj() * psi0.coefficients)
        out = _strang_steps(WT, phase_blocks(), Z)
        if not np.all(np.isfinite(out)):
            _strang_steps(WT, phase_blocks(), Z, checked=True)
        return (out @ self._V.T) * half


def _phase_rows(theta: np.ndarray, w: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """out[j] = exp(-i theta[j] w) in place, bit for bit, from cos and sin."""
    angle = np.multiply.outer(-theta, w)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _strang_steps(WT: np.ndarray, phase_blocks, Z0: np.ndarray,
                  rows: np.ndarray | None = None,
                  checked: bool = False) -> np.ndarray:
    """Run Z <- D_m * (Z W^T) from Z0 over every step and return the final
    Z, one state or a block of rows, one per row of D_m.  With gaps G_m,
    rows 1.. then gain G_m * (Z W^T)[0].  Row m of rows, when given,
    receives Z after step m; checked raises at the first step whose state is
    not finite.  Every step runs in buffers made once, so Z0 is never
    written and a checked re-run can restart from it."""
    Z, Y, gain = Z0.copy(), np.empty_like(Z0), np.empty_like(Z0[1:])
    # one state is the bound Z.dot, which skips np.dot's dispatch.  A block
    # is one real GEMM of the interleaved (re, im) views: 1.7-2x faster than
    # the complex product at N = 65, slower only from N ~ 220 on
    A, out, product = WT, Y, Z.dot
    if Z.ndim == 2:
        A = np.kron(WT.real, np.eye(2)) + np.kron(WT.imag, [[0, 1], [-1, 0]])
        out, product = Y.view(float), Z.view(float).dot
    for m0, D, G in phase_blocks:
        for j, d in enumerate(D):
            product(A, out)
            np.multiply(d, Y, Z)
            if G is not None:
                np.multiply(G[j], Y[0], out=gain)
                Z[1:] += gain
            if rows is not None:
                rows[m0 + j] = Z
            if checked and not np.all(np.isfinite(Z)):
                raise NumericError(f"non-finite state at step {m0 + j}")
    return Z


def sobolev_weights(model: SpectralModel, N: int,
                    norm: SobolevNorm) -> np.ndarray:
    """The weight of each mode of the window: 1 in L2, the model's h1_weight
    law in H1."""
    ks = index_window(model, N).astype(float)
    if norm is SobolevNorm.L2:
        return np.ones_like(ks)
    return model.kind.laws.h1_weight(ks)


def sobolev_norm(psi: StateVector, norm: SobolevNorm) -> float:
    weights = sobolev_weights(psi.model, psi.size, norm)
    return float(np.linalg.norm(weights * psi.coefficients))
