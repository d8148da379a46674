"""Curvature tensors: covariant curls of the two connections.

Sign convention (fixed once, used everywhere):

    R_{mu nu lam}^kap = d_mu G_{nu lam}^kap - d_nu G_{mu lam}^kap
                        - (G_{mu lam}^sig G_{nu sig}^kap - G_{nu lam}^sig G_{mu sig}^kap)

applied to the affine connection (Cartan curvature) or to the Christoffel
symbols (Riemann curvature).  With this convention the curvature scalar of a
round sphere of radius r comes out +2/r^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._local import LocalGeometry, curl, inverse_derivative
from .charts import Chart
from .connection import ConnectionBundle, connection_derivatives
from .errors import ValidationError


def _check_source(source):
    if source not in ("riemann", "cartan"):
        raise ValidationError(f"source must be 'riemann' or 'cartan', got {source!r}")


def cartan_curvature(chart: Chart, q) -> np.ndarray:
    """Curvature of the affine (triad) connection, R[mu, nu, lam, kap]."""
    return LocalGeometry.of(chart, q, 2).cartan


def riemann_curvature(chart: Chart, q) -> np.ndarray:
    """Curvature of the Riemann (Christoffel) connection, Rbar[mu, nu, lam, kap]."""
    return LocalGeometry.of(chart, q, 2).riemann


def ricci_scalar_einstein(chart: Chart, q, source="riemann"):
    """Ricci tensor, curvature scalar and Einstein tensor from a chosen curvature.

    ``source`` is "riemann" (Christoffel curl) or "cartan" (affine curl).
    Returns ``(ricci, scalar, einstein)`` with R_nulam = R_{mu nu lam}^mu,
    R = g^{nulam} R_nulam, G = R_nulam - g_nulam R / 2.
    """
    _check_source(source)
    return LocalGeometry.of(chart, q, 2).ricci_scalar_einstein(source)


@dataclass
class CurvatureBundle:
    """Curvature-level tensors at one point (Ricci family from the chosen source)."""

    q: np.ndarray
    cartan: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    einstein: np.ndarray
    source: str

    @classmethod
    def of(cls, geo: LocalGeometry, source: str) -> "CurvatureBundle":
        ricci, scalar, einstein = geo.ricci_scalar_einstein(source)
        return cls(
            q=geo.q,
            cartan=geo.cartan,
            riemann=geo.riemann,
            ricci=ricci,
            scalar=scalar,
            einstein=einstein,
            source=source,
        )


def curvature_bundle(chart: Chart, q, source="riemann") -> CurvatureBundle:
    _check_source(source)
    return CurvatureBundle.of(LocalGeometry.of(chart, q, 2), source)


@dataclass
class GeometryPoint:
    """Every local tensor at one point: connection and curvature bundles."""

    q: np.ndarray
    connection: ConnectionBundle
    curvature: CurvatureBundle


def geometry_point(chart: Chart, q, source="riemann") -> GeometryPoint:
    _check_source(source)
    geo = LocalGeometry.of(chart, q, 2)
    return GeometryPoint(
        q=geo.q,
        connection=ConnectionBundle.of(geo),
        curvature=CurvatureBundle.of(geo, source),
    )


def curvature_relation_check(chart: Chart, q) -> float:
    """Max-norm residual of the Cartan/Riemann curvature decomposition.

    Checks R = Rbar + Dbar_mu K_nu - Dbar_nu K_mu - [K_mu, K_nu] with the
    contortion matrices K_mu = K_{mu lam}^kap and Christoffel covariant
    derivatives; both curvatures are computed independently.
    """
    bundle, dgamma, dchris2 = connection_derivatives(chart, q)
    g, invg = bundle.metric, bundle.inverse_metric
    chris2 = bundle.gamma_bar
    cartan = curl(bundle.gamma, dgamma)
    riemann = curl(chris2, dchris2)

    # dK needs dS (from dgamma), dg and d(invg)
    _, dg = chart.metric_with_derivatives(q, order=1)
    dinvg = inverse_derivative(invg, dg)
    dS = 0.5 * (dgamma - np.einsum("klms->lkms", dgamma))
    S = bundle.torsion
    dSl = np.einsum("abts,tc->abcs", dS, g) + np.einsum("abt,tcs->abcs", S, dg)
    dKl = dSl - np.einsum("bcas->abcs", dSl) + np.einsum("cabs->abcs", dSl)
    Kl = bundle.contortion
    Kmix = bundle.contortion_mixed
    dKmix = np.einsum("abls,lc->abcs", dKl, invg) + np.einsum("abl,lcs->abcs", Kl, dinvg)

    # Dbar_mu K_{nu lam}^kap
    DK = (
        np.einsum("nlkm->mnlk", dKmix)
        - np.einsum("mns,slk->mnlk", chris2, Kmix)
        - np.einsum("mls,nsk->mnlk", chris2, Kmix)
        + np.einsum("msk,nls->mnlk", chris2, Kmix)
    )
    comm = np.einsum("mls,nsk->mnlk", Kmix, Kmix) - np.einsum("nls,msk->mnlk", Kmix, Kmix)
    rhs = riemann + DK - np.einsum("nmlk->mnlk", DK) - comm
    return float(np.max(np.abs(cartan - rhs)))
