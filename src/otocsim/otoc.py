"""Direct evaluation of Pauli OTOCs and the squared-commutator check.

This is the reference path the measurement protocols are validated
against: C(t) = Tr[rho W(t) V W(t) V] with W = sigma_i^a, V = sigma_j^b.
The CLI reads C(t) off the time point's ladder instead (`Ladder.direct`).
For a pure state C(t) = <V W(t) Psi|W(t) V Psi> is one entry of
`build_ladder`'s Gram matrices, formed from the same chain with the same
operations, so it is the same value bit for bit.  For `maximally_mixed`
`build_ladder` takes C(t) = Tr[(W(t) V)^2]/2^N from eigenbasis traces,
equal to `otoc_direct` on the factor `maximally_mixed_state` within
rounding but not bit for bit.  `otoc_commutator` is the standalone chain
that `verify` and the tests check against: from the prepared state and a
time t it makes the point's U(t) from the propagator the state holds, and
reads both C(t) and the squared commutator off the same two vectors;
`otoc_direct` is its first value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .hilbert import ATOL_SPECTRUM, Record, check_axis, check_site

if TYPE_CHECKING:  # protocol imports OtocSpec from here
    from .protocol import PreparedState


class OtocSpec(Record):
    """Which correlator: W = sigma_(site_i)^(axis_a), V = sigma_(site_j)^(axis_b).

    site_i == site_j is allowed by the algebra; the disjoint-support
    reading (C(0) = 1) assumes distinct sites.
    """

    __slots__ = ("site_i", "axis_a", "site_j", "axis_b")

    def __init__(self, site_i: int, axis_a: str, site_j: int, axis_b: str):
        for name, axis in (("axis_a", axis_a), ("axis_b", axis_b)):
            try:
                check_axis(axis)
            except ValueError as exc:
                raise ValueError(f"{name}={axis!r}: {exc}") from None
        self._set(site_i, axis_a, site_j, axis_b)

    def validate_for(self, n_sites: int) -> None:
        """IndexError, naming site_i or site_j, when a site is outside an n_sites register."""
        for name in ("site_i", "site_j"):
            site = getattr(self, name)
            try:
                check_site(site, n_sites)
            except IndexError as exc:
                raise IndexError(f"{name}={site}: {exc}") from None


def checked_otoc(value) -> complex:
    """`value` as a complex C(t), or ValueError when |C| exceeds 1 beyond ATOL_SPECTRUM."""
    value = complex(value)
    if not abs(value) <= 1.0 + ATOL_SPECTRUM:
        raise ValueError(f"OTOC magnitude {abs(value)} exceeds 1 beyond tolerance")
    return value


def otoc_commutator(prepared: PreparedState, t: float) -> tuple[complex, float]:
    """(C(t), <|[W(t), V]|^2>), both from V W(t) Psi and W(t) V Psi.

    W(t) = U(t)^dagger W U(t) acts twice, so the chain is four
    applications of U(t) or U(t)^dagger on the prepared factor Psi.
    C(t) = <V W(t) Psi|W(t) V Psi> and ||[W(t), V] Psi||_F^2 are traced
    over Psi's columns; the squared norm is nonnegative by construction.
    """
    ev = prepared.propagator.evolution(t)
    register, spec, psi = ev.register, prepared.spec, prepared.psi

    def w_t(factor: np.ndarray) -> np.ndarray:
        return ev.backward(register.pauli(ev.forward(factor), spec.site_i, spec.axis_a))

    def v(factor: np.ndarray) -> np.ndarray:
        return register.pauli(factor, spec.site_j, spec.axis_b)

    vw, wv = v(w_t(psi)), w_t(v(psi))
    commutator = wv - vw
    return checked_otoc(np.vdot(vw, wv)), float(np.vdot(commutator, commutator).real)


def otoc_direct(prepared: PreparedState, t: float) -> complex:
    """Exact complex C(t) = Tr[rho sigma_i^a(t) sigma_j^b sigma_i^a(t) sigma_j^b], as
    `otoc_commutator`'s first value."""
    return otoc_commutator(prepared, t)[0]
