"""FedProx (Li et al., MLSys 2020).

Identical to FedAvg except for the local objective: each client minimises
``F_i(w) + (mu/2)·||w − w_global||²``, pulling local iterates toward the
round's global model and damping client drift under heterogeneity.  The
proximal gradient term is implemented in
:class:`repro.nn.optim.ProximalSGD`; everything else reuses FedAvg.

On the flat transport the anchor ``w_global`` is the packed broadcast
vector itself: executors hand it to
:meth:`repro.nn.optim.ProximalSGD.set_anchor_flat` (via
:func:`repro.fl.client.run_client_update_flat`), so no per-parameter
anchor copies of the incoming dict are materialised.  The anchor values
— and therefore the trajectory — are identical to the dict path.
"""

from __future__ import annotations

from repro.algorithms.fedavg import FedAvg
from repro.utils.validation import check_non_negative

__all__ = ["FedProx"]


class FedProx(FedAvg):
    """FedAvg with a proximal local objective.

    Parameters
    ----------
    mu:
        Proximal coefficient (paper-standard grid is {0.001 .. 1}; 0.1 is
        a common default for severe heterogeneity).
    """

    name = "fedprox"

    def __init__(self, mu: float = 0.1) -> None:
        check_non_negative("mu", mu)
        self.prox_mu = float(mu)
