"""Time-sliced short-time kernels and transfer-matrix spectra.

The short-time amplitude between nearby points is built from the postpoint
expansion of the squared flat-space step: through fourth order in the
coordinate difference, with all coefficient tensors evaluated at the later
point.  Spectra run in imaginary time (the standard Wick rotation of the
sliced amplitude; real-time slicing is out of scope), where the kernel is a
positive transfer matrix, block-circulant in the azimuth on ring and sphere
alike, whose Fourier-block eigenvalues give ``E = -(hbar/eps) log(lambda)``.

Three measures can dress the kernel.  All carry the exact volume weight
sqrt(g) at the integration (pre)point -- for the naive measure that weight
IS the Jacobian-action content, written in closed form rather than as its
second-order expansion, which matters near coordinate singularities of the
latitude grid where the truncated series misbehaves:

* ``naive_dewitt``   volume weight only,
* ``qep``            volume weight times exp(delta_jacobian), the difference
                     between the step-difference and volume Jacobian
                     exponents (a curvature-scale, bounded dressing),
* ``qep_via_veff``   volume weight with the curvature effective potential
                     -hbar^2 Rbar / 6M inserted into the action;

the last two are the same measure written in two forms and must produce the
same spectra.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from functools import lru_cache

import numpy as np

from .charts import Chart, builtin_chart
from ._local import LocalGeometry
from .curvature import ricci_scalar_einstein
from .errors import GridTooCoarseError, NumericError, ValidationError
from .expressions import _multisets, _partials_index

MEASURE_MODES = ("naive_dewitt", "qep", "qep_via_veff")

# Smallest kernel width sqrt(eps hbar / M) per largest grid spacing.
MIN_RESOLUTION_RATIO = 1.5
# Kernel entries whose cubic+quartic bracket correction shifts the kernel
# exponent by more than this lie outside the short-time expansion's trust
# region (coordinate steps wrapping a pole, far Gaussian tails); those
# entries use the manifold's exact squared geodesic arc instead.
EXPANSION_TOLERANCE = 2.0


@dataclass(frozen=True)
class ShortTimeConfig:
    """Units and slicing controls for short-time kernels."""

    mass: float = 1.0
    hbar: float = 1.0
    epsilon: float = 0.02
    cutoff_sigmas: float = 6.0

    def __post_init__(self):
        if self.mass <= 0 or self.hbar <= 0 or self.epsilon <= 0:
            raise ValidationError("mass, hbar and epsilon must all be positive")


def _normalize_measure(mode: str) -> str:
    key = str(mode).strip().lower().replace("-", "_")
    aliases = {"naive": "naive_dewitt", "naivedewitt": "naive_dewitt",
               "veff": "qep_via_veff", "qepviaveff": "qep_via_veff"}
    key = aliases.get(key, key)
    if key not in MEASURE_MODES:
        raise ValidationError(f"unknown measure mode {mode!r}; use one of {MEASURE_MODES}")
    return key


class PostpointData:
    """Connection data at one postpoint, reusable over batches of steps.

    Each step polynomial is collapsed once onto monomial coefficients, so an
    evaluation on steps of any shape ``(..., D)`` is one matrix product.
    """

    def __init__(self, chart: Chart, q):
        self.geometry = geo = LocalGeometry.of(chart, q, 2)
        self.q = geo.q
        g, gamma, dgamma = geo.g, geo.gamma, geo.dgamma
        gamma_lower = np.einsum("mns,sl->mnl", gamma, g)
        gsym = 0.5 * (gamma + gamma.transpose(1, 0, 2))
        # quartic coefficient of the postpoint bracket
        self.quartic = (
            np.einsum("mt,lntk->mnlk", g, dgamma) / 3.0
            + np.einsum("mt,lnd,kdt->mnlk", g, gamma, gsym) / 3.0
            + 0.25 * np.einsum("lks,mns->mnlk", gamma, gamma_lower)
        )
        # midpoint quartic coefficient
        quartic_mid = (
            np.einsum("kt,mntl->mnlk", g, dgamma) + np.einsum("kt,mnd,ldt->mnlk", g, gamma, gsym)
        ) / 12.0
        # step-difference Jacobian coefficient, symmetrized in its three step indices
        T = dgamma.transpose(0, 1, 3, 2) + np.einsum("mnt,tsl->mnsl", gamma, gsym)
        perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
        qep_coeff = sum(T.transpose(p + (3,)) for p in perms) / 6.0
        self._quadratic = _coefficients(2, g)
        self._bracket = _coefficients(4, g, -gamma_lower, self.quartic)
        self._bracket_mid = _coefficients(4, g, quartic_mid)
        self._jacobian_naive = _coefficients(
            2, -np.einsum("mnn->m", gamma), 0.5 * np.einsum("nkkm->nm", dgamma)
        )
        self._jacobian_qep = _coefficients(
            2,
            -np.einsum("mnm->n", gsym),
            0.5 * (np.einsum("mnsm->ns", qep_coeff) - np.einsum("mnl,lsm->ns", gsym, gsym)),
        )
        self._delta_jacobian = self._jacobian_qep - self._jacobian_naive

    def curvature_scalar(self) -> float:
        """Riemann curvature scalar at the postpoint."""
        return self.geometry.ricci_scalar_einstein("riemann")[1]

    def quadratic_form(self, dq):
        return _monomials(dq, 2) @ self._quadratic

    def bracket(self, dq):
        """Postpoint expansion of the squared flat step through fourth order."""
        return _monomials(dq, 4) @ self._bracket

    def bracket_midpoint(self, dq):
        return _monomials(dq, 4) @ self._bracket_mid

    def jacobian_naive(self, dq):
        return _monomials(dq, 2) @ self._jacobian_naive

    def jacobian_qep(self, dq):
        return _monomials(dq, 2) @ self._jacobian_qep

    def delta_jacobian(self, dq):
        """``jacobian_qep(dq) - jacobian_naive(dq)`` as one polynomial."""
        return _monomials(dq, 2) @ self._delta_jacobian


def _coefficients(degree, *tensors):
    """Coefficients on ``_monomials(dq, degree)`` of sum_T T[a1..ak] dq^a1 .. dq^ak."""
    size = len(_multisets(len(tensors[0]), degree))
    return sum(
        np.bincount(_partials_index(len(t), t.ndim).ravel(), weights=t.ravel(), minlength=size)
        for t in tensors
    )


def _monomials(dq, degree):
    """Every monomial of the steps ``dq`` (shape (..., D)) up to ``degree``, last
    axis in the order of the jet tuples' partials (``expressions._multisets``)."""
    dq = np.asarray(dq, dtype=float)
    factors = _monomial_factors(dq.shape[-1], degree)
    out = np.empty(dq.shape[:-1] + (len(factors) + 1,))
    out[..., 0] = 1.0
    for s, (parent, last) in enumerate(factors, 1):
        np.multiply(out[..., parent], dq[..., last], out=out[..., s])
    return out


@lru_cache(maxsize=None)
def _monomial_factors(dim, degree):
    """Per non-constant monomial s: the position of s[:-1] and the coordinate s[-1]."""
    sets = _multisets(dim, degree)
    return tuple((sets.index(s[:-1]), s[-1]) for s in sets[1:])


def _evaluate(chart: Chart, q, poly, dq, scale=1.0):
    """``scale * poly(data, dq)`` for the postpoint data at q; a float for one step."""
    value = scale * poly(PostpointData(chart, chart.check_point(q)), dq)
    return float(value) if np.ndim(value) == 0 else value


def postpoint_action(chart: Chart, q_post, dq, cfg: ShortTimeConfig) -> float:
    """Short-time action between q_post - dq and q_post, coefficients at q_post.

    Exact to O(|dq|^5)/eps for the step along the preferred (autoparallel)
    path; for a flat cartesian chart it reduces to M dq^2 / (2 eps) exactly.
    """
    return _evaluate(chart, q_post, PostpointData.bracket, dq, 0.5 * cfg.mass / cfg.epsilon)


def prepoint_action(chart: Chart, q_pre, dq, cfg: ShortTimeConfig):
    """Prepoint form: postpoint bracket with dq -> -dq and coefficients at q_pre."""
    dq = -np.asarray(dq, dtype=float)
    return _evaluate(chart, q_pre, PostpointData.bracket, dq, 0.5 * cfg.mass / cfg.epsilon)


def midpoint_action(chart: Chart, q_mid, dq, cfg: ShortTimeConfig):
    """Midpoint form: no cubic term, 1/12 quartic coefficient, coefficients at q_mid."""
    scale = 0.5 * cfg.mass / cfg.epsilon
    return _evaluate(chart, q_mid, PostpointData.bracket_midpoint, dq, scale)


def jacobian_action_naive(chart: Chart, q_post, dq):
    """Volume-weight Jacobian exponent: log of sqrt(g(q - dq) / g(q)) through second order."""
    return _evaluate(chart, q_post, PostpointData.jacobian_naive, dq)


def jacobian_action_qep(chart: Chart, q_post, dq):
    """Step-difference Jacobian exponent with the double symmetrization.

    The coefficient of the quadratic term symmetrizes the inner index pair
    first and then all three step indices; for integrable (flat-image square)
    charts it collapses onto the naive exponent.
    """
    return _evaluate(chart, q_post, PostpointData.jacobian_qep, dq)


def delta_jacobian(chart: Chart, q_post, dq):
    """Difference between the step-difference and volume-weight Jacobian exponents.

    On torsion-free charts this equals Ricci_{mu nu} dq^mu dq^nu / 6.
    """
    return _evaluate(chart, q_post, PostpointData.delta_jacobian, dq)


def effective_potential(chart: Chart, q, cfg: ShortTimeConfig | None = None) -> float:
    """Measure-difference effective potential V_eff = -hbar^2 Rbar / (6 M)."""
    return _veff(ricci_scalar_einstein(chart, q, source="riemann")[1], cfg or ShortTimeConfig())


def _veff(scalar: float, cfg: ShortTimeConfig) -> float:
    return -cfg.hbar**2 * scalar / (6.0 * cfg.mass)


# -- manifolds and kernels ----------------------------------------------------


@dataclass(frozen=True)
class Ring:
    """Circle of radius r, P uniform grid points (free rotor)."""

    radius: float = 1.0
    points: int = 256


@dataclass(frozen=True)
class Sphere:
    """Round sphere of radius r on a Gauss-Legendre x uniform-azimuth grid."""

    radius: float = 1.0
    n_theta: int = 48
    n_phi: int = 96


def _wrap_angle(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


@dataclass
class SlicedPropagator:
    """Discretized short-time kernel; supports composition and spectra.

    The kernel is block-circulant in the azimuth and is kept in profile form
    ``profile[j, j', dk]`` over the rows j of ``_kernel_grid`` (the ring has
    one) together with its Fourier blocks; the full dense matrix is never
    materialized.  The profile is even in dk, so block m equals block
    n_phi - m: only blocks m = 0 .. n_phi // 2 are kept.
    ``fallback_fraction`` is the share of a single slice's entries inside the
    cutoff that left the fourth-order bracket for the exact squared arc.
    """

    manifold: object
    cfg: ShortTimeConfig
    measure_mode: str
    slice_count: int = 1
    profile: np.ndarray | None = None  # (n_rows, n_rows, n_phi)
    blocks: np.ndarray | None = None  # (n_rows, n_rows, n_phi // 2 + 1)
    fallback_fraction: float | None = None

    @property
    def total_time(self) -> float:
        return self.cfg.epsilon * self.slice_count

    @property
    def matrix(self) -> np.ndarray | None:
        """A ring kernel's dense circulant K[a, b] = profile[(a - b) % P] as a
        read-only view; None for the sphere."""
        if self.profile is None or len(self.profile) != 1:
            return None
        n = self.profile.shape[2]  # window a of ext, reversed, holds K[a, b] at b
        ext = self.profile[0, 0][(np.arange(2 * n - 1) + 1 - n) % n]
        return np.lib.stride_tricks.sliding_window_view(ext, n)[:, ::-1]

    def compose(self, other: "SlicedPropagator") -> "SlicedPropagator":
        """Chain two kernels on the same grid (matrix product, block by block)."""
        if self.manifold != other.manifold or self.measure_mode != other.measure_mode:
            raise ValidationError("can only compose propagators on the same grid and measure")
        blocks = np.einsum("abm,bcm->acm", self.blocks, other.blocks)
        n_phi = _grid_points(self.manifold)[-1]
        return replace(self, slice_count=self.slice_count + other.slice_count, blocks=blocks,
                       profile=np.fft.irfft(blocks, n_phi, axis=2), fallback_fraction=None)

    def entry(self, a: int, b: int) -> float:
        """Kernel entry between flat grid indices (row = postpoint)."""
        n_phi = self.profile.shape[2]
        ja, ka = divmod(a, n_phi)
        jb, kb = divmod(b, n_phi)
        return float(self.profile[ja, jb, (ka - kb) % n_phi])

    def eigenvalues(self, count: int | None = None) -> np.ndarray:
        """Transfer-matrix eigenvalues by descending real part.

        The leading eigenvalues of the positive imaginary-time kernel are
        real; the requested slice is checked for stray imaginary parts.
        (Deep in the spectrum the mildly nonsymmetric postpoint
        discretization can produce tiny complex pairs, which never carry
        physics and are returned as real parts.)

        The eigenvalues are those of the Fourier blocks B_m (P. J. Davis,
        *Circulant Matrices*, 1979; the ring's 1x1 blocks are its eigenvalues)
        and obey |lambda| <= b_m = min(||B_m||_1, ||B_m||_inf).  Blocks are
        solved in descending b_m (a block standing also for n_phi - m counts
        twice) until ``count`` values are in hand and the next b_m is strictly
        below the count-th largest real part so far; the slice is then a full
        solve's, bit for bit.
        """
        vals = self._leading(count)
        return vals.real if count is None else _checked_real(vals)

    def _leading(self, count):
        """The complex eigenvalues of ``eigenvalues``, unchecked."""
        size = np.abs(self.blocks.real)
        if np.any(np.max(np.abs(self.blocks.imag), axis=(0, 1))
                  > 1e-9 * np.maximum(1.0, np.max(size, axis=(0, 1)))):
            raise NumericError("azimuthal kernel block unexpectedly complex")
        n_phi = _grid_points(self.manifold)[-1]
        bound = np.minimum(size.sum(axis=0).max(axis=0), size.sum(axis=1).max(axis=0))
        solved, found = {}, np.empty(0)
        for m in np.argsort(-bound, kind="stable"):
            if 0 < (count or 0) <= len(found) and bound[m] < np.sort(found)[-count]:
                break
            # the stored block m also stands for block n_phi - m
            paired = 0 < m and 2 * m != n_phi
            solved[m] = [np.linalg.eigvals(self.blocks[:, :, m].real)] * (2 if paired else 1)
            found = np.concatenate([found] + [v.real for v in solved[m]])
        vals = np.concatenate([v for m in sorted(solved) for v in solved[m]])
        return vals[np.argsort(-vals.real, kind="stable")][:count]


def _checked_real(vals):
    scale = float(np.max(np.abs(vals.real))) or 1.0
    if np.max(np.abs(vals.imag)) > 1e-7 * scale:
        raise NumericError("leading kernel eigenvalues have unexpectedly large imaginary parts")
    return vals.real


def _grid_points(manifold):
    """Grid points per axis, the fields after the radius: (points,) for the ring,
    (n_theta, n_phi) for the sphere."""
    if isinstance(manifold, (Ring, Sphere)):
        return tuple(int(n) for n in astuple(manifold)[1:])
    raise ValidationError(f"unsupported manifold {manifold!r}")


def _kernel_grid(manifold):
    """Grid description for the kernel assembly of ``_propagators``.

    Returns ``(chart, weights, spacing, posts, steps)``.  A column is a
    latitude and an azimuth difference dk = k_a - k_b; ``weights[j, dk]`` is
    sqrt(g) times the coordinate cell volume at the column's point,
    ``spacing`` the largest geodesic grid step.  ``posts`` lists the
    postpoint q_a (azimuth 0) of each latitude row, and ``steps(q_a)`` gives
    that row's steps dq = q_a - q_b to every column and their exact squared
    geodesic arcs.  The ring is the single-row case.
    """
    points = _grid_points(manifold)
    if min(points) < 8:
        raise ValidationError(f"kernel grid needs at least 8 points per axis, got {points}")
    r, n_ph = float(manifold.radius), points[-1]
    dphi = 2.0 * math.pi / n_ph
    delta_phi = _wrap_angle(dphi * np.arange(n_ph))
    if len(points) == 1:
        chart = builtin_chart("ring", r=r)
        weights = np.full((1, n_ph), r * dphi)  # sqrt(g) = r along the ring
        row = (delta_phi[None, :, None], (r * delta_phi[None, :]) ** 2)
        return chart, weights, r * dphi, [np.zeros(1)], lambda q_post: row

    n_th = points[0]
    chart = builtin_chart("sphere", r=r)
    u, wu = np.polynomial.legendre.leggauss(n_th)
    theta = np.arccos(u)  # descending from pi to 0, none at the poles
    vol = wu * dphi / np.sin(theta)  # coordinate cell volume per column latitude
    weights = np.broadcast_to((vol * (r * r * np.sin(theta)))[:, None], (n_th, n_ph))
    spacing = max(r * float(np.max(np.abs(np.diff(theta)))), r * dphi)  # azimuth: equator

    def steps(q_post):
        th = q_post[0]
        dq = np.broadcast_arrays((th - theta)[:, None], delta_phi[None, :])
        cos_arc = math.cos(th) * np.cos(theta)[:, None] + (
            math.sin(th) * np.sin(theta)[:, None]
        ) * np.cos(delta_phi)[None, :]
        arc2 = (r * np.arccos(np.clip(cos_arc, -1.0, 1.0))) ** 2
        return np.stack(dq, axis=-1), arc2

    return chart, weights, spacing, [np.array([th, 0.0]) for th in theta], steps


def build_propagator(manifold, cfg: ShortTimeConfig, measure_mode="qep") -> SlicedPropagator:
    """Assemble the single-slice imaginary-time kernel on a manifold grid.

    The kernel row at postpoint a is
    ``norm * sqrt(g(b)) * vol_b * exp(-A_eps/hbar + J_mode)``: postpoint
    short-time action, exact volume weight at the integration point, the
    measure-mode exponent of ``_mode_exponent``, and a Gaussian cutoff at
    ``cfg.cutoff_sigmas`` widths of geodesic distance.  A leading-order
    Gaussian row sum (continuum value one) fixes the normalization on the
    grid, so only quadrature error is divided out.

    Ring and sphere share this one assembly over the rows of
    ``_kernel_grid``; only the grid differs.  Both are stored as their
    azimuthal profile and Fourier blocks; the ring is the single-row case.
    """
    return next(_propagators(manifold, (cfg,), _normalize_measure(measure_mode)))


def _propagators(manifold, cfgs, mode):
    """The kernel of ``build_propagator`` for each config in turn; every
    config's grid resolution is checked before any row is built."""
    chart, weights, spacing, posts, steps = _kernel_grid(manifold)
    scales = []
    for cfg in cfgs:
        sigma = math.sqrt(cfg.epsilon * cfg.hbar / cfg.mass)
        if sigma / spacing < MIN_RESOLUTION_RATIO:
            raise GridTooCoarseError(
                f"kernel width {sigma:.4g} under-resolved by grid spacing {spacing:.4g}"
            )
        lam = 0.5 * cfg.mass / (cfg.epsilon * cfg.hbar)
        norm = (cfg.mass / (2.0 * math.pi * cfg.epsilon * cfg.hbar)) ** (chart.dim / 2)
        scales.append((lam, (cfg.cutoff_sigmas * sigma) ** 2, norm * weights))
    profiles, live, fallback = _kernel_profiles(chart, weights, posts, steps, mode, cfgs, scales)
    for cfg, profile, n_live, n_fallback in zip(cfgs, profiles, live, fallback):
        # blocks m and n_phi - m of the even profile coincide: keep m <= n_phi / 2
        yield SlicedPropagator(manifold, cfg, mode, profile=profile,
                               blocks=np.fft.rfft(profile, axis=2),
                               fallback_fraction=n_fallback / n_live)


def _kernel_profiles(chart, weights, posts, steps, mode, cfgs, scales):
    """Every config's kernel profile and counts of live and fallback entries.

    Rows run outermost: one row's ``PostpointData``, steps, arcs and step
    monomials fill that row of every config's kernel (and die with this call)."""
    n_ph = weights.shape[1]
    mirror = (-np.arange(n_ph)) % n_ph
    n_low = len(_multisets(chart.dim, 2))  # the leading monomials, degree <= 2
    profiles = np.empty((len(cfgs), len(weights)) + weights.shape)
    live, fallback = [0] * len(cfgs), [0] * len(cfgs)
    for j, q_post in enumerate(posts):
        data = PostpointData(chart, q_post)
        dq, arc2 = steps(data.q)
        mono = _monomials(dq, 4)
        low = mono[..., :n_low]
        bracket = mono @ data._bracket
        # cubic + quartic part of the bracket: the short-time expansion's trust measure
        excess = np.abs(bracket - low @ data._quadratic)
        jexps = _mode_exponents(data, low, mode, cfgs)
        for c, ((lam, cut, norm_weights), jexp) in enumerate(zip(scales, jexps)):
            trusted = lam * excess <= EXPANSION_TOLERANCE
            action2 = np.where(trusted, bracket, arc2)
            mask = arc2 <= cut
            live[c] += np.count_nonzero(mask)
            fallback[c] += np.count_nonzero(mask & ~trusted)
            kernel = np.where(mask, norm_weights * np.exp(-lam * action2 + jexp), 0.0)
            # leading-order reference with the exact arc and measure (continuum value 1)
            flat_sum = float(np.sum(np.where(mask, norm_weights * np.exp(-lam * arc2), 0.0)))
            if flat_sum <= 0:
                raise NumericError("flat reference kernel summed to zero")
            row = kernel / flat_sum
            _check_positive_finite(row)
            # the kernel is even in the azimuth difference; symmetrize rounding noise
            profiles[c, j] = 0.5 * (row + row[:, mirror])
    return profiles, live, fallback


def _check_positive_finite(arr):
    if not np.all(np.isfinite(arr)):
        raise NumericError("kernel contains non-finite entries")
    if np.any(arr < 0.0):
        raise NumericError("imaginary-time kernel must be non-negative")


def _mode_exponents(data: PostpointData, low, mode: str, cfgs):
    """Measure dressing relative to the exact prepoint volume weight, per config.

    The naive measure is carried entirely by the closed-form sqrt(g) weight
    at the integration point; the step-difference measure differs from it by
    exp(delta_jacobian) (on ``low``, the step monomials of degree <= 2); the
    effective-potential form inserts -eps V_eff into the action instead.
    """
    if mode == "qep":
        return [low @ data._delta_jacobian] * len(cfgs)
    if mode == "naive_dewitt":
        return [0.0] * len(cfgs)
    scalar = data.curvature_scalar()
    return [-cfg.epsilon * _veff(scalar, cfg) / cfg.hbar for cfg in cfgs]


# -- spectrum extraction -------------------------------------------------------


@dataclass
class SpectrumLevels:
    """Distinct energy levels with degeneracy counts."""

    energies: np.ndarray
    degeneracies: tuple
    eigenvalues: np.ndarray


def extract_spectrum(prop: SlicedPropagator, n_levels: int, group_tol: float = 1e-6) -> SpectrumLevels:
    """Energies from the largest kernel eigenvalues.

    ``E_k = -(hbar / (eps * slices)) log(lambda_k)``; near-coincident levels
    (within ``group_tol`` in energy) are merged and reported with their
    degeneracy.
    """
    if n_levels < 1:
        raise ValidationError("n_levels must be at least 1")
    # enough eigenvalues even for (2l+1)-fold degenerate ladders
    vals = prop._leading(max(16, 2 * (n_levels + 1) ** 2))
    vals = vals[vals.real > 0.0]
    if len(vals) == 0:
        raise NumericError("no positive kernel eigenvalues to take logarithms of")
    energies = -(prop.cfg.hbar / prop.total_time) * np.log(vals.real)
    # group ascending energies into degenerate clusters
    levels = []
    for e in energies:
        if levels and abs(e - levels[-1][-1]) <= group_tol:
            levels[-1].append(e)
        elif len(levels) == n_levels:
            break
        else:
            levels.append([e])
    _checked_real(vals[: sum(map(len, levels))])  # only the eigenvalues behind the levels
    return SpectrumLevels(
        energies=np.array([float(np.mean(group)) for group in levels]),
        degeneracies=tuple(len(group) for group in levels),
        eigenvalues=vals.real,
    )


@dataclass
class SpectrumResult:
    """Levels across an epsilon ladder plus first-order Richardson extrapolation."""

    measure_mode: str
    epsilons: tuple
    ladder: dict  # eps -> np.ndarray of levels
    degeneracies: tuple  # from the finest eps
    extrapolated: np.ndarray


def richardson_order1(eps_coarse, levels_coarse, eps_fine, levels_fine):
    """Eliminate the O(eps) error from two level ladders."""
    ec, ef = float(eps_coarse), float(eps_fine)
    if not ef < ec:
        raise ValidationError("fine epsilon must be smaller than coarse epsilon")
    n = min(len(levels_coarse), len(levels_fine))
    lc, lf = np.asarray(levels_coarse)[:n], np.asarray(levels_fine)[:n]
    return (ec * lf - ef * lc) / (ec - ef)


def spectrum_ladder(
    manifold,
    cfg: ShortTimeConfig,
    measure_mode: str,
    epsilons=(0.08, 0.04, 0.02, 0.01),
    n_levels: int = 4,
    group_tol: float = 1e-6,
) -> SpectrumResult:
    """Spectra over an epsilon ladder with first-order Richardson extrapolation.

    The reported ``extrapolated`` levels come from the two smallest epsilons.
    """
    eps_sorted = tuple(sorted(set(float(e) for e in epsilons), reverse=True))
    if len(eps_sorted) < 2:
        raise ValidationError("need at least two distinct epsilons to extrapolate")
    mode = _normalize_measure(measure_mode)
    cfgs = [replace(cfg, epsilon=eps) for eps in eps_sorted]
    spectra = [
        extract_spectrum(prop, n_levels, group_tol=group_tol)
        for prop in _propagators(manifold, cfgs, mode)
    ]
    ladder = {eps: levels.energies for eps, levels in zip(eps_sorted, spectra)}
    extrapolated = richardson_order1(
        eps_sorted[-2], ladder[eps_sorted[-2]], eps_sorted[-1], ladder[eps_sorted[-1]]
    )
    return SpectrumResult(
        measure_mode=mode,
        epsilons=eps_sorted,
        ladder=ladder,
        degeneracies=spectra[-1].degeneracies,
        extrapolated=extrapolated,
    )
