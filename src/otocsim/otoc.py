"""Direct evaluation of Pauli OTOCs and the squared-commutator check.

This is the reference path the measurement protocols are validated
against: C(t) = Tr[rho W(t) V W(t) V] with W = sigma_i^a, V = sigma_j^b.
The CLI reads C(t) off the time point's ladder instead (`Ladder.direct`):
the ladder already holds the first three evolutions of this chain, so
one more gives the same value, bit for bit.  `otoc_direct` stays the
standalone evaluator that `verify` and the tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import Evolution
from .hilbert import ATOL_SPECTRUM, PAULI_AXES, check_site

if TYPE_CHECKING:  # protocol imports OtocSpec from here
    from .protocol import PreparedState


@dataclass(frozen=True)
class OtocSpec:
    """Which correlator: W = sigma_(site_i)^(axis_a), V = sigma_(site_j)^(axis_b).

    site_i == site_j is allowed by the algebra; the disjoint-support
    reading (C(0) = 1) assumes distinct sites.
    """

    site_i: int
    axis_a: str
    site_j: int
    axis_b: str

    def __post_init__(self):
        if self.axis_a not in PAULI_AXES or self.axis_b not in PAULI_AXES:
            raise ValueError(f"axes must be in {PAULI_AXES}")

    def validate_for(self, n_sites: int) -> None:
        check_site(self.site_i, n_sites)
        check_site(self.site_j, n_sites)


def _operands(prepared: PreparedState, ev: Evolution):
    """W(t) = U(t)^dagger W U(t) and V as maps on factors in the register order."""
    register = ev.check(prepared.register)
    spec = prepared.spec

    def w_t(psi: np.ndarray) -> np.ndarray:
        return ev.backward @ register.pauli(ev.forward @ psi, spec.site_i, spec.axis_a)

    def v(psi: np.ndarray) -> np.ndarray:
        return register.pauli(psi, spec.site_j, spec.axis_b)

    return w_t, v


def checked_otoc(value) -> complex:
    """`value` as a complex C(t), or ValueError when |C| exceeds 1 beyond ATOL_SPECTRUM."""
    value = complex(value)
    if not abs(value) <= 1.0 + ATOL_SPECTRUM:
        raise ValueError(f"OTOC magnitude {abs(value)} exceeds 1 beyond tolerance")
    return value


def otoc_direct(prepared: PreparedState, ev: Evolution) -> complex:
    """Exact complex C(t) = Tr[rho sigma_i^a(t) sigma_j^b sigma_i^a(t) sigma_j^b].

    Evaluated as Tr[Psi^dagger W(t) V W(t) V Psi] on the prepared factor Psi.
    """
    w_t, v = _operands(prepared, ev)
    psi = prepared.psi
    return checked_otoc(np.vdot(psi, w_t(v(w_t(v(psi))))))


def commutator_norm(prepared: PreparedState, ev: Evolution) -> float:
    """<|[W(t), V]|^2> = ||[W(t), V] Psi||_F^2, nonnegative by construction."""
    w_t, v = _operands(prepared, ev)
    psi = prepared.psi
    comm_psi = w_t(v(psi)) - v(w_t(psi))
    return float(np.vdot(comm_psi, comm_psi).real)
