"""Connections, torsion and contortion at a point.

Index layout (see charts module for triad/metric layouts):

* ``chris1[lam, nu, mu]``  Riemann connection of the first kind
* ``chris2[lam, nu, mu]``  second kind, upper index last
* ``gamma[lam, kap, mu]``  affine connection Gamma_{lam kap}^mu built from triads
* ``torsion[lam, kap, mu]`` antisymmetric part of gamma in (lam, kap)
* derivative tensors append the derivative index:
  ``dgamma[lam, kap, mu, sig] = d_sig Gamma_{lam kap}^mu``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._local import LocalGeometry
from .charts import Chart
from .errors import ValidationError
from .expressions import Expression, Jet


def christoffel(chart: Chart, q):
    """Riemann connection (Christoffel symbols) of the first and second kind.

    Returns ``(chris1, chris2)`` with
    chris1[lam, nu, mu] = (d_lam g_numu + d_nu g_lammu - d_mu g_lamnu) / 2
    and chris2 raised with the inverse metric on the last index.
    """
    geo = LocalGeometry.of(chart, q, 1)
    return geo.chris1, geo.chris2


def affine_connection(chart: Chart, q) -> np.ndarray:
    """Affine connection Gamma_{lam kap}^mu = e_i^mu d_lam e^i_kap."""
    return LocalGeometry.of(chart, q, 1).gamma


def torsion_tensor(chart: Chart, q) -> np.ndarray:
    """Torsion S_{lam kap}^mu: the antisymmetric part of the affine connection."""
    return LocalGeometry.of(chart, q, 1).torsion


def torsion_trace(torsion: np.ndarray) -> np.ndarray:
    """Contracted torsion vector S_mu = S_{mu lam}^lam."""
    return np.einsum("mll->m", torsion)


def contortion(chart: Chart, q) -> np.ndarray:
    """Contortion K_{mu nu lam} = S_{mu nu lam} - S_{nu lam mu} + S_{lam mu nu}.

    All indices lowered with the metric; antisymmetric in the last two.
    """
    return LocalGeometry.of(chart, q, 1).contortion


@dataclass
class ConnectionBundle:
    """All connection-level tensors at one point."""

    q: np.ndarray
    metric: np.ndarray
    inverse_metric: np.ndarray
    gamma_bar_first: np.ndarray  # chris1[lam, nu, mu]
    gamma_bar: np.ndarray  # chris2[lam, nu, mu]
    gamma: np.ndarray  # affine [lam, kap, mu]
    torsion: np.ndarray  # S[lam, kap, mu]
    torsion_vector: np.ndarray  # S_mu
    contortion: np.ndarray  # K[mu, nu, lam] all lower
    contortion_mixed: np.ndarray  # K_{mu nu}^lam

    @classmethod
    def of(cls, geo: LocalGeometry) -> "ConnectionBundle":
        return cls(
            q=geo.q,
            metric=geo.g,
            inverse_metric=geo.invg,
            gamma_bar_first=geo.chris1,
            gamma_bar=geo.chris2,
            gamma=geo.gamma,
            torsion=geo.torsion,
            torsion_vector=torsion_trace(geo.torsion),
            contortion=geo.contortion,
            contortion_mixed=geo.contortion_mixed,
        )


def connection_bundle(chart: Chart, q) -> ConnectionBundle:
    return ConnectionBundle.of(LocalGeometry.of(chart, q, 1))


def connection_derivatives(chart: Chart, q):
    """First derivatives of both connections (needed by curvature and kernels).

    Returns ``(bundle, dgamma, dchris2)`` where
    dgamma[lam, kap, mu, sig] = d_sig Gamma_{lam kap}^mu and likewise for the
    Riemann connection of the second kind.
    """
    geo = LocalGeometry.of(chart, q, 2)
    return ConnectionBundle.of(geo), geo.dgamma, geo.dchris2


def covariant_derivative(chart: Chart, q, field, connection="riemann", variance="upper"):
    """Covariant derivative of a vector (or scalar) expression field.

    Parameters
    ----------
    field : sequence of str/Expression (length D) or a single str/Expression
        Vector field components, or a scalar field.
    connection : "riemann" (Christoffel) or "affine" (triad connection)
    variance : "upper", "lower", or "scalar"

    Returns the matrix ``out[mu, nu] = D_mu v_nu`` (or ``D_mu v^nu``); for a
    scalar field both connections reduce to the plain gradient.
    """
    if connection not in ("riemann", "affine"):
        raise ValidationError(f"connection must be 'riemann' or 'affine', got {connection!r}")
    if variance not in ("upper", "lower", "scalar"):
        raise ValidationError(f"variance must be 'upper', 'lower' or 'scalar', got {variance!r}")
    q = chart.check_point(q)
    D = chart.dim

    scalar = variance == "scalar"
    if isinstance(field, (str, Expression)):
        exprs = [field if isinstance(field, Expression) else Expression(field)]
        if not scalar:
            raise ValidationError("a single expression needs variance='scalar'")
    else:
        exprs = [e if isinstance(e, Expression) else Expression(str(e)) for e in field]
        if scalar and len(exprs) != 1:
            raise ValidationError("scalar variance expects exactly one expression")
        if not scalar and len(exprs) != D:
            raise ValidationError(f"vector field needs {D} components, got {len(exprs)}")

    env = dict(chart.params)
    for idx in range(D):
        env[f"q{idx + 1}"] = Jet.variable(q[idx], idx, D, 1)
    vals = np.empty(len(exprs))
    grads = np.empty((len(exprs), D))
    for k, expr in enumerate(exprs):
        jet = expr(env)
        if not isinstance(jet, Jet):
            jet = Jet.constant(jet, D, 1)
        vals[k] = jet.val
        grads[k] = jet.d1

    if scalar:
        return grads[0]

    conn = (
        christoffel(chart, q)[1] if connection == "riemann" else affine_connection(chart, q)
    )
    dv = grads.T  # dv[mu, nu] = d_mu v_nu
    if variance == "lower":
        return dv - np.einsum("mns,s->mn", conn, vals)
    return dv + np.einsum("msn,s->mn", conn, vals)


def metricity_residual(chart: Chart, q) -> float:
    """max |D_mu g_nulam| for the affine connection; zero for metric triads."""
    g, dg = chart.metric_with_derivatives(q, order=1)
    gamma = affine_connection(chart, q)
    Dg = (
        np.einsum("nls->snl", dg)
        - np.einsum("sna,al->snl", gamma, g)
        - np.einsum("sla,na->snl", gamma, g)
    )
    return float(np.max(np.abs(Dg)))


def identity_residuals(chart: Chart, q) -> dict:
    """Pointwise residuals of the connection-level identities.

    Keys: christoffel_symmetry, torsion_antisymmetry, contortion_antisymmetry,
    decomposition (Gamma = Gammabar + K), trace_identity, metric_derivative
    (d g = Gamma + Gamma), metricity.
    """
    b = connection_bundle(chart, q)
    g, dg = chart.metric_with_derivatives(q, order=1)
    gamma_low = np.einsum("lkm,mc->lkc", b.gamma, b.metric)
    res = {
        "christoffel_symmetry": float(np.max(np.abs(b.gamma_bar - b.gamma_bar.transpose(1, 0, 2)))),
        "torsion_antisymmetry": float(np.max(np.abs(b.torsion + b.torsion.transpose(1, 0, 2)))),
        "contortion_antisymmetry": float(
            np.max(np.abs(b.contortion + b.contortion.transpose(0, 2, 1)))
        ),
        "decomposition": float(
            np.max(np.abs(b.gamma - (b.gamma_bar + b.contortion_mixed)))
        ),
        "trace_identity": float(
            np.max(np.abs(np.einsum("mnn->m", b.gamma) - np.einsum("mnn->m", b.gamma_bar)))
        ),
        "metric_derivative": float(
            np.max(np.abs(dg - (np.einsum("snl->nls", gamma_low) + np.einsum("sln->nls", gamma_low))))
        ),
        "metricity": metricity_residual(chart, q),
    }
    return res
