"""Time-sliced short-time kernels and transfer-matrix spectra.

The short-time amplitude between nearby points is built from the postpoint
expansion of the squared flat-space step: through fourth order in the
coordinate difference, with all coefficient tensors evaluated at the later
point.  Spectra run in imaginary time (the standard Wick rotation of the
sliced amplitude; real-time slicing is out of scope), where the kernel is a
positive transfer matrix, block-circulant in the azimuth on ring and sphere
alike, whose Fourier-block eigenvalues give ``E = -(hbar/eps) log(lambda)``.
A kernel is built on its symmetry-unique quarter, azimuth differences 0 .. n_phi/2
of the rows j < ceil(n_theta/2), and copied exactly onto the rest: the round
manifold is even under phi -> -phi, the sphere and its Gauss-Legendre grid under z -> -z.

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
import numbers
from dataclasses import astuple, dataclass, replace
from functools import lru_cache
from itertools import repeat

import numpy as np

from .charts import Chart, builtin_chart
from .config import active_profile
from ._local import LocalGeometry
from .curvature import ricci_scalar_einstein
from .errors import GridTooCoarseError, MultipletMismatchError, NumericError, ValidationError
from .expressions import _multisets, _partials_index

MEASURE_MODES = ("naive_dewitt", "qep", "qep_via_veff")

# Smallest kernel width sqrt(eps hbar / M) per largest grid spacing.
MIN_RESOLUTION_RATIO = 1.5
# Kernel entries whose cubic+quartic bracket correction shifts the kernel
# exponent by more than this lie outside the short-time expansion's trust
# region (coordinate steps wrapping a pole, far Gaussian tails); those
# entries use the manifold's exact squared geodesic arc instead.
EXPANSION_TOLERANCE = 2.0
# Grids kept, keyed on the manifold, and their rows, keyed on it and the degenerate-triad floor
GRIDS_KEPT = 4  # rows: 3 ceil(n_theta/2) n_theta (n_phi/2 + 1) doubles, 1.35 MB at 48 x 96
ROWS_KEPT_BYTES = 4 << 20  # larger rows (past about 64 x 128) are built per ladder, not kept


@dataclass(frozen=True)
class ShortTimeConfig:
    """Units and slicing controls for short-time kernels."""

    mass: float = 1.0
    hbar: float = 1.0
    epsilon: float = 0.02
    cutoff_sigmas: float = 6.0

    def __post_init__(self):
        if not all(0.0 < value < math.inf for value in astuple(self)):
            raise ValidationError(f"mass, hbar, epsilon and cutoff_sigmas must all be finite and "
                                  f"positive, got {self}")


def _normalize_measure(mode: str) -> str:
    key = str(mode).strip().lower().replace("-", "_")
    aliases = {"naive": "naive_dewitt", "naivedewitt": "naive_dewitt",
               "veff": "qep_via_veff", "qepviaveff": "qep_via_veff"}
    key = aliases.get(key, key)
    if key not in MEASURE_MODES:
        raise ValidationError(f"unknown measure mode {mode!r}; use one of {MEASURE_MODES}")
    return key


def _step_polynomial(name, degree, doc=None):
    """A ``PostpointData`` method: the polynomial with coefficients ``name`` on steps dq."""
    def method(self, dq):
        dq, coefficients = np.asarray(dq, dtype=float), getattr(self, name)
        values = coefficients @ _monomials(np.moveaxis(dq, -1, 0), degree)
        return values.reshape(coefficients.shape[:-1] + dq.shape[:-1])
    method.__doc__ = doc
    return method


class PostpointData:
    """Connection data at one postpoint, reusable over batches of steps.

    Each step polynomial is collapsed once onto monomial coefficients, so on steps
    ``dq`` of any shape ``(..., D)`` it is one product ``coefficients @ planes``
    with the coordinate-first planes of ``_monomials``.  Postpoints ``q`` (N, D)
    take one stacked ``LocalGeometry`` pass; every coefficient array gains a leading
    row axis, row j bitwise that of ``q[j]`` alone, and a polynomial shape (N, ...).
    """

    def __init__(self, chart: Chart, q):
        self.geometry = geo = LocalGeometry.of(chart, q, 2)
        self.q = geo.q
        g, gamma, dgamma = geo.g, geo.gamma, geo.dgamma
        gamma_lower = np.einsum("...mns,...sl->...mnl", gamma, g)
        gsym = 0.5 * (gamma + np.swapaxes(gamma, -3, -2))
        # quartic coefficient of the postpoint bracket
        self.quartic = (
            np.einsum("...mt,...lntk->...mnlk", g, dgamma) / 3.0
            + np.einsum("...mt,...lnd,...kdt->...mnlk", g, gamma, gsym) / 3.0
            + 0.25 * np.einsum("...lks,...mns->...mnlk", gamma, gamma_lower)
        )
        # midpoint quartic coefficient
        quartic_mid = (
            np.einsum("...kt,...mntl->...mnlk", g, dgamma)
            + np.einsum("...kt,...mnd,...ldt->...mnlk", g, gamma, gsym)
        ) / 12.0
        # step-difference Jacobian coefficient, symmetrized in its three step indices
        T = np.swapaxes(dgamma, -2, -1) + np.einsum("...mnt,...tsl->...mnsl", gamma, gsym)
        perms = ((-4, -3, -2), (-4, -2, -3), (-3, -4, -2), (-3, -2, -4), (-2, -4, -3), (-2, -3, -4))
        qep_coeff = sum(T.transpose(*range(T.ndim - 4), *p, -1) for p in perms) / 6.0
        rows = self.q.shape[:-1]
        self._quadratic = _coefficients(rows, 2, g)
        self._bracket = _coefficients(rows, 4, g, -gamma_lower, self.quartic)
        self._bracket_mid = _coefficients(rows, 4, g, quartic_mid)
        self._jacobian_naive = _coefficients(
            rows, 2, -np.einsum("...mnn->...m", gamma), 0.5 * np.einsum("...nkkm->...nm", dgamma)
        )
        qep_quadratic = np.einsum("...mnsm->...ns", qep_coeff)
        self._jacobian_qep = _coefficients(
            rows, 2, -np.einsum("...mnm->...n", gsym),
            0.5 * (qep_quadratic - np.einsum("...mnl,...lsm->...ns", gsym, gsym)),
        )
        self._delta_jacobian = self._jacobian_qep - self._jacobian_naive

    def curvature_scalar(self):
        """Riemann curvature scalar at the postpoint (per row of a stack)."""
        return self.geometry.ricci_scalar_einstein("riemann")[1]

    quadratic_form = _step_polynomial("_quadratic", 2)
    bracket = _step_polynomial(
        "_bracket", 4, "Postpoint expansion of the squared flat step through fourth order.")
    bracket_midpoint = _step_polynomial("_bracket_mid", 4)
    jacobian_naive = _step_polynomial("_jacobian_naive", 2)
    jacobian_qep = _step_polynomial("_jacobian_qep", 2)
    delta_jacobian = _step_polynomial(
        "_delta_jacobian", 2, "``jacobian_qep(dq) - jacobian_naive(dq)`` as one polynomial.")


def _coefficients(rows, degree, *tensors):
    """Coefficients on ``_monomials(steps, degree)`` of sum_T T[a1..ak] dq^a1 .. dq^ak per
    row (``rows``: () or (N,)); row offsets keep each row's order of additions."""
    n, size = math.prod(rows), len(_multisets(tensors[0].shape[-1], degree))
    return sum(
        np.bincount(_row_partials(t.shape[-1], t.ndim - len(rows), n, size), weights=t.ravel(),
                    minlength=n * size)
        for t in tensors
    ).reshape(rows + (size,))


@lru_cache(maxsize=None)
def _row_partials(dim, k, n, size):
    """``_partials_index(dim, k)`` in each of n rows of ``size`` coefficients, raveled."""
    return (size * np.arange(n)[:, None] + _partials_index(dim, k).ravel()).ravel()


def _monomials(steps, degree):
    """Every monomial up to ``degree`` of the D coordinate ``steps`` (arrays that broadcast
    to one shape) as contiguous planes (S, M) over the M flattened steps, in the order of
    the jet tuples' partials (``expressions._multisets``): a polynomial is
    ``coefficients @ planes``."""
    factors = _monomial_factors(len(steps), degree)
    planes = np.empty((len(factors) + 1,) + np.broadcast_shapes(*map(np.shape, steps)))
    planes[0] = 1.0
    for s, (parent, last) in enumerate(factors, 1):
        np.multiply(planes[parent], steps[last], out=planes[s, ...])  # a view, also 0-d
    return planes.reshape(len(planes), -1)


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


class _Grid:
    """A kernel grid: its radius, then its grid points per axis (``_grid_points``)."""

    def __post_init__(self):
        radius, *points = astuple(self)
        if not (0.0 < radius < math.inf
                and all(isinstance(n, numbers.Integral) and n >= 8 for n in points)):
            raise ValidationError(f"a kernel grid needs a finite positive radius and integer "
                                  f"grid sizes of at least 8, got {self}")


@dataclass(frozen=True)
class Ring(_Grid):
    """Circle of radius r, P uniform grid points (free rotor)."""

    radius: float = 1.0
    points: int = 256


@dataclass(frozen=True)
class Sphere(_Grid):
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
    materialized.  Built on its symmetric quarter and copied (``_kernel_profiles``), the
    profile is exactly even in dk: block m is block n_phi - m, so only m <= n_phi // 2 are kept.
    The sphere's rows mirror under z -> -z; its mirror rows' blocks are copies, not transforms.
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
        if (self.manifold, self.cfg, self.measure_mode) != (
                other.manifold, other.cfg, other.measure_mode):
            raise ValidationError("can only compose propagators on one grid, config and measure")
        blocks = np.einsum("abm,bcm->acm", self.blocks, other.blocks)
        n_phi = _grid_points(self.manifold)[-1]
        return replace(self, slice_count=self.slice_count + other.slice_count, blocks=blocks,
                       profile=np.fft.irfft(blocks, n_phi, axis=2), fallback_fraction=None)

    def entry(self, a: int, b: int) -> float:
        """Kernel entry between flat grid indices in [0, n_rows * n_phi) (row = postpoint)."""
        n_rows, _, n_phi = self.profile.shape
        if not all(isinstance(i, numbers.Integral) and 0 <= i < n_rows * n_phi for i in (a, b)):
            raise ValidationError(f"indices must be integers in [0, {n_rows * n_phi}), got {a, b}")
        (ja, ka), (jb, kb) = divmod(a, n_phi), divmod(b, n_phi)
        return float(self.profile[ja, jb, (ka - kb) % n_phi])

    def eigenvalues(self, count: int | None = None) -> np.ndarray:
        """Transfer-matrix eigenvalues by descending real part.

        The leading eigenvalues of the positive imaginary-time kernel are
        real; the requested slice is checked for stray imaginary parts.
        (Deep in the spectrum the mildly nonsymmetric postpoint
        discretization can produce tiny complex pairs, which never carry
        physics and are returned as real parts.)

        The eigenvalues are those of the Fourier blocks B_m (P. J. Davis,
        *Circulant Matrices*, 1979; the ring's 1x1 blocks are its eigenvalues).
        A block equal to its own row-and-column reversal (built kernels of even
        n_theta, exactly even under z -> -z) is [[A, C], [JCJ, JAJ]], J the
        reversal of n_theta / 2 rows; its eigenvectors are even (x, Jx) or odd
        (x, -Jx), as Y_lm has parity (-1)^(l+m), so the sectors A + CJ and A - CJ
        are its solve units; any other block is one.  A unit U obeys |lambda| <=
        b = min(||U||_1, ||U||_inf); units are solved in descending b (a unit of m
        standing also for n_phi - m counts twice) until ``count`` values are in
        hand and the next b is strictly below the count-th largest real part so
        far; the slice is then a full solve's (every unit), bit for bit.
        """
        if count is not None and not (isinstance(count, numbers.Integral) and count >= 1):
            raise ValidationError(f"count must be None or an integer of at least 1, got {count!r}")
        vals = self._leading(count)
        return vals.real if count is None else _checked_real(vals)

    def _leading(self, count):
        """The complex eigenvalues of ``eigenvalues``, unchecked."""
        parts = np.ascontiguousarray(self.blocks).view(float).reshape(-1, self.blocks.shape[2], 2)
        size = np.maximum(parts.max(axis=0), -parts.min(axis=0))  # max |re|, |im| per m
        if np.any(size[:, 1] > 1e-9 * np.maximum(1.0, size[:, 0])):
            raise NumericError("azimuthal kernel block unexpectedly complex")
        n_phi = _grid_points(self.manifold)[-1]
        units, m = _solve_units(self.blocks.real)
        size = np.abs(units)
        bound = np.minimum(size.sum(axis=1).max(axis=1), size.sum(axis=2).max(axis=1))
        copies = np.where((m > 0) & (2 * m != n_phi), 2, 1)  # a unit of m stands for n_phi - m
        queue, solved, found = list(np.argsort(-bound, kind="stable")), {}, np.empty(0)
        while True:
            # a round: the next units solved whatever those before them hold (re <= bound)
            upper, take = found, 0
            for u in queue:
                if 0 < (count or 0) <= len(upper) and bound[u] < np.sort(upper)[-count]:
                    break
                upper = np.concatenate([upper, np.full(units.shape[1] * copies[u], bound[u])])
                take += 1
            if not take:
                break
            round_, queue = queue[:take], queue[take:]
            for u, v in zip(round_, np.linalg.eigvals(units[round_])):
                solved[u] = [v] * copies[u]
                found = np.concatenate([found] + [v.real] * copies[u])
        vals = np.concatenate([v for u in sorted(solved) for v in solved[u]])
        return vals[np.argsort(-vals.real, kind="stable")][:count]


def _solve_units(blocks):
    """Real blocks (n, n, M) as one contiguous stack of solve units (U, k, k) and each
    unit's m: the sectors A + CJ, A - CJ of exactly reflection-even blocks, else whole ones."""
    n, m = len(blocks), np.arange(blocks.shape[2])
    h = n // 2  # rows h .. n - 1 reversed against rows h - 1 .. 0: the whole reversal test
    if n % 2 or not np.array_equal(blocks[:h], blocks[: h - 1 : -1, ::-1]):
        return np.ascontiguousarray(np.moveaxis(blocks, 2, 0)), m
    a, cj = blocks[:h, :h], blocks[:h, : h - 1 : -1]
    units = np.empty((len(m), 2, h, h))  # units[m] = A + CJ, A - CJ of block m
    np.stack([a + cj, a - cj], out=np.moveaxis(units, 0, 3))
    return units.reshape(-1, h, h), np.repeat(m, 2)


def _checked_real(vals):
    scale = float(np.max(np.abs(vals.real))) or 1.0
    if np.max(np.abs(vals.imag)) > 1e-7 * scale:
        raise NumericError("leading kernel eigenvalues have unexpectedly large imaginary parts")
    return vals.real


def _grid_points(manifold):
    """Grid points per axis, the fields after the radius: (points,) for the ring,
    (n_theta, n_phi) for the sphere."""
    if isinstance(manifold, _Grid):
        return tuple(int(n) for n in astuple(manifold)[1:])
    raise ValidationError(f"unsupported manifold {manifold!r}")


def _kernel_grid(manifold):
    """Grid description for the kernel assembly of ``_propagators``.

    Returns ``(chart, weights, spacing, posts, steps, fold)``.  A column is a latitude
    and an azimuth difference dk = k_a - k_b; the kernel is even under phi -> -phi, so
    the columns take dk = 0 .. n_phi // 2 only, and ``fold[dk] = min(dk, n_phi - dk)``
    is every dk's column.  ``weights[j, dk]`` is sqrt(g) times the coordinate cell
    volume at the column's point, ``spacing`` the largest geodesic grid step.  The
    sphere and its Gauss-Legendre nodes are even under z -> -z too, so ``posts`` lists
    the postpoint q_a (azimuth 0) of the latitude rows j < ceil(n_theta / 2) only, and
    ``steps(q_a)`` gives that row's steps dq = q_a - q_b to every column, coordinate
    first (D arrays broadcasting to the columns, as ``_monomials`` takes them), and
    their exact squared geodesic arcs, flattened.  The ring is the single-row case.
    Kept, keyed on the manifold, for the last ``GRIDS_KEPT`` ones: every array is read-only.
    """
    _grid_points(manifold)  # before the lookup: an unsupported manifold may be unhashable
    return _cached_grid(manifold)


@lru_cache(maxsize=GRIDS_KEPT)
def _cached_grid(manifold):
    points = _grid_points(manifold)
    r, n_ph = float(manifold.radius), points[-1]
    dphi = 2.0 * math.pi / n_ph
    delta_phi = _wrap_angle(dphi * np.arange(n_ph // 2 + 1))
    fold = np.minimum(np.arange(n_ph), n_ph - np.arange(n_ph))
    delta_phi.flags.writeable = fold.flags.writeable = False
    if len(points) == 1:
        chart = builtin_chart("ring", r=r)
        weights = np.broadcast_to(r * dphi, (1, len(delta_phi)))  # sqrt(g) = r along the ring
        return (chart, weights, r * dphi, (np.broadcast_to(0.0, 1),),
                lambda q_post: ((delta_phi[None, :],), (r * delta_phi) ** 2), fold)

    n_th = points[0]
    chart = builtin_chart("sphere", r=r)
    u, wu = np.polynomial.legendre.leggauss(n_th)  # nodes and weights even under u -> -u
    theta = np.arccos(u)  # descending from pi to 0, none at the poles
    vol = wu * dphi / np.sin(theta)  # coordinate cell volume per column latitude
    weights = np.broadcast_to((vol * (r * r * np.sin(theta)))[:, None], (n_th, len(delta_phi)))
    spacing = max(r * float(np.max(np.abs(np.diff(theta)))), r * dphi)  # azimuth: equator

    column, dphi_row = theta[:, None], delta_phi[None, :]
    cos_column, sin_column, cos_dphi = np.cos(column), np.sin(column), np.cos(dphi_row)

    def steps(q_post):
        th = q_post[0]
        cos_arc = math.cos(th) * cos_column + (math.sin(th) * sin_column) * cos_dphi
        arc2 = (r * np.arccos(np.clip(cos_arc, -1.0, 1.0))) ** 2
        return (th - column, dphi_row), arc2.ravel()

    posts = tuple(np.broadcast_to([th, 0.0], 2) for th in theta[: (n_th + 1) // 2])
    return chart, weights, spacing, posts, steps, fold


@lru_cache(maxsize=GRIDS_KEPT)
def _grid_rows(manifold, floor):
    """The h = ceil(n_theta / 2) built rows of a grid, kept per manifold and degenerate-triad
    ``floor`` (a new floor rebuilds them): the stacked ``PostpointData`` of its ``posts``,
    their steps (a tuple of D arrays broadcasting to (h, columns)), and each row's bracket,
    trust measure (its cubic + quartic part) and squared arc, three (h, columns) arrays of
    3 h n_theta (n_phi/2 + 1) doubles, 1.35 MB on the 48 x 96 sphere.  All read-only.
    ``_propagators`` keeps only rows within ``ROWS_KEPT_BYTES``, so at most
    ``GRIDS_KEPT`` of them, 16 MB, stay; it builds larger ones afresh per ladder."""
    chart, _, _, posts, steps, _ = _kernel_grid(manifold)
    data = PostpointData(chart, np.array(posts))
    dq, arc2 = zip(*map(steps, data.q))
    bracket, excess = zip(*(_row_exponents(data, j, row_steps) for j, row_steps in enumerate(dq)))
    rows = [tuple(map(np.stack, zip(*dq))), *map(np.array, (bracket, excess, arc2))]
    for array in (*rows[0], *rows[1:]):
        array.flags.writeable = False
    return data, *rows


def build_propagator(manifold, cfg: ShortTimeConfig, measure_mode="qep") -> SlicedPropagator:
    """Assemble the single-slice imaginary-time kernel on a manifold grid.

    The kernel row at postpoint a is
    ``norm * sqrt(g(b)) * vol_b * exp(-A_eps/hbar + J_mode)``: postpoint
    short-time action, exact volume weight at the integration point, the
    measure-mode exponent of ``_mode_exponents``, and a Gaussian cutoff at
    ``cfg.cutoff_sigmas`` widths of geodesic distance.  A leading-order
    Gaussian row sum (continuum value one) fixes the normalization on the
    grid, so only quadrature error is divided out.

    Ring and sphere share this one assembly over the rows of
    ``_kernel_grid``; only the grid differs.  Both are stored as their
    azimuthal profile and Fourier blocks; the ring is the single-row case.
    """
    return next(_propagators(manifold, (cfg,), _normalize_measure(measure_mode)))


def _propagators(manifold, cfgs, mode):
    """The kernel of ``build_propagator`` for each config in turn; every config's grid
    resolution is checked before any row is built, and a kernel's blocks are built only
    once the kernel before it has been taken (and may have been dropped)."""
    chart, weights, spacing, posts, _, fold = _kernel_grid(manifold)
    scales = []
    for cfg in cfgs:
        sigma = math.sqrt(cfg.epsilon * cfg.hbar / cfg.mass)
        if sigma / spacing < MIN_RESOLUTION_RATIO:
            raise GridTooCoarseError(
                f"kernel width {sigma:.4g} under-resolved by grid spacing {spacing:.4g}"
            )
        lam = 0.5 * cfg.mass / (cfg.epsilon * cfg.hbar)
        norm = (cfg.mass / (2.0 * math.pi * cfg.epsilon * cfg.hbar)) ** (chart.dim / 2)
        scales.append((lam, (cfg.cutoff_sigmas * sigma) ** 2, (norm * weights).ravel()))
    floor = active_profile().degenerate_triad_floor
    kept = 24 * len(posts) * weights.size <= ROWS_KEPT_BYTES  # three (h, columns) doubles
    rows = (_grid_rows if kept else _grid_rows.__wrapped__)(manifold, floor)
    profiles, fractions = _kernel_profiles(  # the dressings are dropped with their buffers
        rows, weights, fold, _mode_exponents(rows, mode, cfgs), scales)
    for cfg, profile, fraction in zip(cfgs, profiles, fractions):
        # blocks m and n_phi - m of the even profile coincide: keep m <= n_phi / 2; the
        # rows past len(posts) mirror those before them (z -> -z), and so do their blocks
        blocks = np.empty(profile.shape[:2] + (len(fold) // 2 + 1,), dtype=complex)
        np.fft.rfft(profile[: len(posts)], axis=2, out=blocks[: len(posts)])
        blocks[len(posts):] = blocks[: len(blocks) // 2][::-1, ::-1]
        yield SlicedPropagator(manifold, cfg, mode, profile=profile, blocks=blocks,
                               fallback_fraction=fraction)
        del blocks  # the caller's to drop before the next is built


def _kernel_profiles(rows, weights, fold, dressings, scales):
    """Every config's kernel profile and its ``fallback_fraction``.

    ``rows`` are those of ``_grid_rows``: the h = ceil(n_rows / 2) built rows' brackets,
    trust measures and arcs.  Each config's kernel is one call per elementwise step over
    all h rows (the flat reference summed per row), in two (h, columns) buffers.  ``fold``
    copies a row onto every dk (phi -> -phi); rows h - 1 .. 0, reversed in both axes, are
    the last rows (z -> -z)."""
    _, _, bracket, excess, arc2 = rows
    h, n_rows = len(bracket), len(weights)
    copies = np.broadcast_to(np.bincount(fold).astype(float), weights.shape).ravel()  # per dk
    row_copies = 2.0 - (2 * np.arange(h) + 1 == n_rows)  # row j and its mirror; a middle row once
    kernel, flat = np.empty((2, h, weights.size))
    profiles, fractions = np.empty((len(scales), n_rows, n_rows, len(fold))), []
    for c, ((lam, cut, norm_weights), dressing) in enumerate(zip(scales, dressings)):
        trusted = lam * excess <= EXPANSION_TOLERANCE
        mask = arc2 <= cut
        live = int(row_copies @ (mask @ copies))  # exact: integers
        fractions.append(int(row_copies @ ((mask & ~trusted) @ copies)) / live)
        # norm_weights * exp(-lam * action2 + dressing), zero outside the cutoff
        np.multiply(np.where(trusted, bracket, arc2), -lam, out=kernel)
        np.exp(np.add(kernel, dressing, out=kernel), out=kernel)
        np.multiply(norm_weights, kernel, out=kernel)
        kernel[~mask] = 0.0
        # leading-order reference with the exact arc and measure (continuum value 1)
        np.exp(np.multiply(arc2, -lam, out=flat), out=flat)
        np.multiply(norm_weights, flat, out=flat)
        flat[~mask] = 0.0
        flat_sums = np.array([row @ copies for row in flat])  # a dot per row: the sums stay bitwise
        if np.any(flat_sums <= 0):
            raise NumericError("flat reference kernel summed to zero")
        np.divide(kernel, flat_sums[:, None], out=kernel)
        _check_positive_finite(kernel)
        np.take(kernel.reshape((h,) + weights.shape), fold, axis=2, out=profiles[c, :h])
        profiles[c, h:] = profiles[c, : n_rows - h][::-1, ::-1]
    return profiles, fractions


def _row_exponents(data, j, steps):
    """Row j's bracket and its cubic + quartic part, the trust measure."""
    planes = _monomials(steps, 4)
    bracket = data._bracket[j] @ planes
    return bracket, np.abs(bracket - data._quadratic[j] @ planes[: data._quadratic.shape[-1]])


def _check_positive_finite(arr):
    if not np.all(np.isfinite(arr)):
        raise NumericError("kernel contains non-finite entries")
    if np.any(arr < 0.0):
        raise NumericError("imaginary-time kernel must be non-negative")


def _mode_exponents(rows, mode: str, cfgs):
    """Measure dressing relative to the exact prepoint volume weight, per config, over
    the built ``rows`` of ``_grid_rows``: an array that broadcasts to (h, columns).

    The naive measure is carried entirely by the closed-form sqrt(g) weight
    at the integration point; the step-difference measure differs from it by
    exp(delta_jacobian), one product per row with its step planes of degree <= 2;
    the effective-potential form inserts -eps V_eff instead.
    """
    data, dq = rows[:2]
    if mode == "qep":
        h, low = len(data.q), _monomials(dq, 2)
        planes = low.reshape(len(low), h, -1).swapaxes(0, 1)  # (h, planes, columns)
        return [np.matmul(data._delta_jacobian[:, None], planes)[:, 0]] * len(cfgs)
    if mode == "naive_dewitt":
        return [0.0] * len(cfgs)
    scalars = data.curvature_scalar()[:, None]
    return [-cfg.epsilon * _veff(scalars, cfg) / cfg.hbar for cfg in cfgs]


# -- spectrum extraction -------------------------------------------------------


@dataclass
class SpectrumLevels:
    """Distinct energy levels with degeneracy counts."""

    energies: np.ndarray
    degeneracies: tuple
    eigenvalues: np.ndarray


def _check_levels(n_levels, group_tol):
    if not isinstance(n_levels, numbers.Integral) or isinstance(n_levels, bool) or n_levels < 1:
        raise ValidationError(f"n_levels must be an integer of at least 1, got {n_levels!r}")
    if not 0.0 <= group_tol < math.inf:
        raise ValidationError(f"group_tol must be finite and non-negative, got {group_tol!r}")


def extract_spectrum(prop: SlicedPropagator, n_levels: int, group_tol: float = 1e-6) -> SpectrumLevels:
    """Energies from the largest kernel eigenvalues.

    ``E_k = -(hbar / (eps * slices)) log(lambda_k)``; near-coincident levels
    (within ``group_tol`` in energy) are merged and reported with their
    degeneracy.
    """
    _check_levels(n_levels, group_tol)
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
    Levels are paired by index across epsilon, so a ladder whose degeneracy
    patterns differ raises ``MultipletMismatchError``, naming them.
    """
    _check_levels(n_levels, group_tol)  # before any kernel is built
    eps_sorted = tuple(sorted(set(float(e) for e in epsilons), reverse=True))
    if len(eps_sorted) < 2:
        raise ValidationError("need at least two distinct epsilons to extrapolate")
    mode = _normalize_measure(measure_mode)
    cfgs = [replace(cfg, epsilon=eps) for eps in eps_sorted]
    # each kernel is dropped once solved, before the next is built
    spectra = list(map(extract_spectrum, _propagators(manifold, cfgs, mode),
                       repeat(n_levels), repeat(group_tol)))
    patterns = {eps: levels.degeneracies for eps, levels in zip(eps_sorted, spectra)}
    if len(set(patterns.values())) > 1:
        raise MultipletMismatchError(patterns)
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
