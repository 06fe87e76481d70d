"""Cross-library agreement checks, skipped when statsmodels is absent.

These are belt-and-braces on top of the first-principles oracles: the
unpenalized Cox fit against PHReg (Breslow ties) and the product-limit
curve against SurvfuncRight. The baseline hazard is checked against direct
risk-set enumeration in test_survival.py instead, because PHReg reports the
left-continuous (lagged) version of the same step function.
"""

import numpy as np
import pytest

sm = pytest.importorskip("statsmodels.api")

from sawtopics.corpus import SurvivalLabels
from sawtopics.survival import fit_elastic_net_cox, kaplan_meier


def instance(seed, n=60, k=3, censor=0.3):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, k))
    y = rng.exponential(2.0, n) + 0.01
    r = rng.uniform(size=n) > censor
    if not r.any():
        r[0] = True
    return Z, y, r


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unpenalized_cox_matches_phreg(seed):
    Z, y, r = instance(seed)
    ours = fit_elastic_net_cox(Z, SurvivalLabels(y, r), lam=0.0, alpha=1.0,
                               tol=0.0, max_iter=200000)
    res = sm.PHReg(y, Z, status=r.astype(int), ties="breslow").fit()
    assert np.abs(ours.beta - res.params).max() <= 1e-6


@pytest.mark.parametrize("seed", [3, 4])
def test_km_matches_survfunc(seed):
    Z, y, r = instance(seed)
    curve, _, _ = kaplan_meier(SurvivalLabels(y, r))
    sf = sm.SurvfuncRight(y, r.astype(int))
    at = np.searchsorted(sf.surv_times, curve.times)
    assert np.abs(sf.surv_prob[at] - curve.survival).max() <= 1e-12

