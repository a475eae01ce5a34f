"""Shared fixtures."""

import numpy as np
import pytest

from glpot import norms, quadrature

#: |ln|x|| past which a row of the norms' batched rule is reported unresolved; for
#: g_delta(1) that is the rows of p within ~4e-9 of 1 (p = 1 + 2^-29 and deeper)
UNRESOLVED_REACH = 1e10


@pytest.fixture
def far_rows_unresolved(monkeypatch):
    """Give the L_p norms' rows that reach past UNRESOLVED_REACH the error inf, as at the depth cap."""

    def integrate(fn, lo, hi):
        value, error = quadrature.integrate_batch(fn, lo, hi)
        return quadrature.IntegralResult(value, np.where(hi.max(axis=1) > UNRESOLVED_REACH, np.inf, error))

    monkeypatch.setattr(norms, "integrate_batch", integrate)
