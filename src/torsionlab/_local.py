"""Every point tensor of the engine, written once.

``LocalGeometry`` takes the result of one ``Chart.triad_jets`` call and
derives each tensor from it on first use: metric derivatives, both
connections and their derivatives, torsion, contortion and curvatures.  The
public tensor functions of ``charts``, ``connection`` and ``curvature`` are
views on it.  Index layouts are those documented in ``charts`` and
``connection``; curvatures are ``R[mu, nu, lam, kap]`` as in ``curvature``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .config import active_profile
from .errors import DegenerateTriadError


def checked_metric(E, q) -> np.ndarray:
    """Induced metric g = E^T E; rejects the point if sqrt(det g) is below the floor."""
    g = E.T @ E
    detg = float(np.linalg.det(g))
    floor = active_profile().degenerate_triad_floor
    if not math.isfinite(detg) or detg <= floor * floor:
        raise DegenerateTriadError(
            f"triad degenerate at {np.asarray(q).tolist()}: sqrt(det g) <= {floor:g}"
        )
    return 0.5 * (g + g.T)


def inverse_derivative(inv, d):
    """d_s (A^-1) = -A^-1 (d_s A) A^-1, from A^-1 and dA[m, n, s]."""
    return -np.einsum("ma,abs,bn->mns", inv, d, inv)


def curl(conn, dconn):
    """Covariant curl of a connection, R[mu, nu, lam, kap] (sign as in ``curvature``)."""
    dterm = np.einsum("nlkm->mnlk", dconn) - np.einsum("mlkn->mnlk", dconn)
    comm = np.einsum("mls,nsk->mnlk", conn, conn) - np.einsum("nls,msk->mnlk", conn, conn)
    return dterm - comm


def ricci_reduction(R4, g, invg):
    """Ricci tensor R_nulam = R_{mu nu lam}^mu, scalar g^{nulam} R_nulam and Einstein tensor."""
    ricci = np.einsum("anla->nl", R4)
    scalar = float(np.einsum("nl,nl->", invg, ricci))
    return ricci, scalar, ricci - 0.5 * g * scalar


class LocalGeometry:
    """The local tensors of a chart at one point, from a single triad-jet pass.

    Jets of order 0 give the metric and the reciprocal triad, order 1 adds
    the metric derivative, both connections, torsion and contortion, order 2
    the connection derivatives and curvatures.  Each tensor is computed on
    first access and cached.
    """

    def __init__(self, jets, q):
        self.q = np.asarray(q, dtype=float)
        self.E = jets[0]
        self.dE = jets[1] if len(jets) > 1 else None
        self.d2E = jets[2] if len(jets) > 2 else None
        self.g = checked_metric(self.E, q)

    @classmethod
    def of(cls, chart, q, order):
        return cls(chart.triad_jets(q, order=order), q)

    # -- metric --------------------------------------------------------------

    @cached_property
    def invg(self):
        return np.linalg.inv(self.g)

    @cached_property
    def recip(self):
        """Reciprocal triad R[i, mu], sum_i R[i, mu] E[i, nu] = delta."""
        return self.E @ self.invg

    @cached_property
    def dg(self):
        E, dE = self.E, self.dE
        return np.einsum("ims,in->mns", dE, E) + np.einsum("im,ins->mns", E, dE)

    @cached_property
    def d2g(self):
        E, dE, d2E = self.E, self.dE, self.d2E
        return (
            np.einsum("imst,in->mnst", d2E, E)
            + np.einsum("ims,int->mnst", dE, dE)
            + np.einsum("imt,ins->mnst", dE, dE)
            + np.einsum("im,inst->mnst", E, d2E)
        )

    @cached_property
    def dinvg(self):
        return inverse_derivative(self.invg, self.dg)

    # -- Riemann connection ----------------------------------------------------

    @cached_property
    def chris1(self):
        """chris1[l, n, m] = (d_l g_nm + d_n g_lm - d_m g_ln) / 2."""
        dg = self.dg
        return 0.5 * (
            np.einsum("nml->lnm", dg) + np.einsum("lmn->lnm", dg) - np.einsum("lnm->lnm", dg)
        )

    @cached_property
    def chris2(self):
        return np.einsum("lns,sm->lnm", self.chris1, self.invg)

    @cached_property
    def dchris2(self):
        d2g = self.d2g
        dchris1 = 0.5 * (
            np.einsum("nmls->lnms", d2g) + np.einsum("lmns->lnms", d2g) - np.einsum("lnms->lnms", d2g)
        )
        return np.einsum("lnts,tm->lnms", dchris1, self.invg) + np.einsum(
            "lnt,tms->lnms", self.chris1, self.dinvg
        )

    # -- affine connection, torsion, contortion --------------------------------

    @cached_property
    def gamma(self):
        """Gamma_{lam kap}^mu = e_i^mu d_lam e^i_kap."""
        return np.einsum("im,ikl->lkm", self.recip, self.dE)

    @cached_property
    def dgamma(self):
        dE, invg = self.dE, self.invg
        drecip = np.einsum("ins,nm->ims", dE, invg) + np.einsum("in,nms->ims", self.E, self.dinvg)
        return np.einsum("ims,ikl->lkms", drecip, dE) + np.einsum(
            "im,ikls->lkms", self.recip, self.d2E
        )

    @cached_property
    def torsion(self):
        gamma = self.gamma
        return 0.5 * (gamma - gamma.transpose(1, 0, 2))

    @cached_property
    def contortion(self):
        """K_{mu nu lam} = S_{mu nu lam} - S_{nu lam mu} + S_{lam mu nu}, all lower."""
        Sl = np.einsum("abs,sc->abc", self.torsion, self.g)
        return Sl - np.einsum("bca->abc", Sl) + np.einsum("cab->abc", Sl)

    @cached_property
    def contortion_mixed(self):
        return np.einsum("abl,lc->abc", self.contortion, self.invg)

    # -- curvature -------------------------------------------------------------

    @cached_property
    def cartan(self):
        return curl(self.gamma, self.dgamma)

    @cached_property
    def riemann(self):
        return curl(self.chris2, self.dchris2)

    def ricci_scalar_einstein(self, source):
        """(ricci, scalar, einstein) of the "riemann" or "cartan" curvature."""
        R4 = self.riemann if source == "riemann" else self.cartan
        return ricci_reduction(R4, self.g, self.invg)
