"""Inner-product estimation on top of the distance sketches.

Stored points x_i with ||x_i|| <= D are scaled by 1/D and embedded with the
data-side padding; queries q with ||q|| <= 1 get the query-side padding at
scale 1.  Both embeddings are unit vectors in d+2 dimensions with

    ||query_pad(q) - data_pad(x_i / D)||^2 = 2 - (2/D) <x_i, q>,

so a distance estimate d~_i converts back through

    w~_i = D - (D/2) d~_i^2.

Transformed distances lie in [0, 2].  The sketch precision is set to
eps0 = 2 eps / (3 D), which keeps the additive error of w~ within +-eps for
the distance range the conversion is sensitive to; the sketch layer rejects
eps0 >= 0.1, so large D needs proportionally larger eps.
"""

from __future__ import annotations

import numpy as np

from .core import (
    NORM_SLACK,
    NormBoundError,
    ParameterError,
    PointSet,
    as_vector,
    transform_data,
    transform_data_rows,
    transform_query,
)
from .ade import DEFAULT_C_K, DEFAULT_C_M, ade_update
from . import ade


class IpeState:
    """Sketch bank over transformed points plus the conversion parameters."""

    def __init__(
        self,
        points: PointSet,
        epsilon: float,
        delta: float,
        seed,
        c_k: float = DEFAULT_C_K,
        c_m: float = DEFAULT_C_M,
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ParameterError("epsilon must lie in (0, 1)")
        self.norm_bound = float(points.norm_bound)
        self.epsilon = float(epsilon)
        self.epsilon0 = 2.0 * self.epsilon / (3.0 * self.norm_bound)
        if self.epsilon0 >= 0.1:
            raise ParameterError(
                f"epsilon0 = 2*eps/(3*D) = {self.epsilon0:.4g} must be below 0.1; "
                "use a smaller eps or a larger norm bound"
            )
        self.delta = float(delta)
        transformed = transform_data_rows(points.points / self.norm_bound)
        self.bank = ade.ade_init(
            PointSet(transformed, norm_bound=1.0 + NORM_SLACK),
            self.epsilon0,
            delta,
            seed,
            c_k=c_k,
            c_m=c_m,
        )

    @property
    def n(self) -> int:
        return self.bank.n

    @property
    def dim(self) -> int:
        return self.bank.plan.d - 2  # the embedding pads two coordinates


# Index a point set for +-epsilon inner-product estimates.
ipe_init = IpeState


def ipe_update(state: IpeState, i: int, z) -> None:
    """Replace stored point i by z (must respect the norm bound)."""
    z = as_vector(z, dim=state.dim)
    nz = float(np.linalg.norm(z))
    if nz > state.norm_bound * (1.0 + NORM_SLACK):
        raise NormBoundError(f"||z|| = {nz:.12g} exceeds the bound {state.norm_bound}")
    ade_update(state.bank, i, transform_data(z / state.norm_bound))


def ipe_query(state: IpeState, q) -> np.ndarray:
    """Estimates of <x_i, q> for all stored points; additive +-epsilon whp.

    Queries a hair over unit norm (within slack) are renormalized; anything
    beyond that is rejected.
    """
    q = as_vector(q, dim=state.dim)
    nq = float(np.linalg.norm(q))
    if nq > 1.0 + NORM_SLACK:
        raise NormBoundError(f"||q|| = {nq:.12g} exceeds 1")
    if nq > 1.0:
        q = q / nq
    tq = transform_query(q, scale=1.0)
    d_est = ade.ade_query(state.bank, tq)
    D = state.norm_bound
    return D - (D / 2.0) * d_est**2
