"""Curvature tensors: covariant curls of the two connections.

Sign convention (fixed once, used everywhere):

    R_{mu nu lam}^kap = d_mu G_{nu lam}^kap - d_nu G_{mu lam}^kap
                        - (G_{mu lam}^sig G_{nu sig}^kap - G_{nu lam}^sig G_{mu sig}^kap)

applied to the affine connection (Cartan curvature) or to the Christoffel
symbols (Riemann curvature).  With this convention the curvature scalar of a
round sphere of radius r comes out +2/r^2.
"""

from __future__ import annotations

import numpy as np

from ._local import LocalGeometry, curl, inverse_derivative
from .charts import Chart
from .connection import connection_derivatives


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
    return LocalGeometry.of(chart, q, 2).ricci_scalar_einstein(source)


def geometry_point(chart: Chart, q) -> LocalGeometry:
    """Every local tensor at q: the geometry of one order-2 jet pass."""
    return LocalGeometry.of(chart, q, 2)


def curvature_relation_check(chart: Chart, q) -> float:
    """Max-norm residual of the Cartan/Riemann curvature decomposition.

    Checks R = Rbar + Dbar_mu K_nu - Dbar_nu K_mu - [K_mu, K_nu] with the
    contortion matrices K_mu = K_{mu lam}^kap and Christoffel covariant
    derivatives; both curvatures are computed independently.
    """
    geo, dgamma, dchris2 = connection_derivatives(chart, q)
    g, invg, chris2 = geo.g, geo.invg, geo.chris2
    cartan = curl(geo.gamma, dgamma)
    riemann = curl(chris2, dchris2)

    # dK needs dS (from dgamma), dg and d(invg)
    _, dg = chart.metric_with_derivatives(q, order=1)
    dinvg = inverse_derivative(invg, dg)
    dS = 0.5 * (dgamma - np.einsum("klms->lkms", dgamma))
    S = geo.torsion
    dSl = np.einsum("abts,tc->abcs", dS, g) + np.einsum("abt,tcs->abcs", S, dg)
    dKl = dSl - np.einsum("bcas->abcs", dSl) + np.einsum("cabs->abcs", dSl)
    Kl, Kmix = geo.contortion, geo.contortion_mixed
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
