import re

import numpy as np
import pytest


def random_spd(rng, n, max_corr=0.99, cost_like=False):
    """Random SPD covariance with correlations capped at max_corr."""
    while True:
        a = rng.standard_normal((n, n + 2))
        cov = a @ a.T
        d = np.sqrt(np.diag(cov))
        corr = cov / np.outer(d, d)
        off = corr[~np.eye(n, dtype=bool)]
        if off.size == 0 or np.abs(off).max() <= max_corr:
            return cov
        # shrink toward the diagonal until correlations fit the cap
        shrink = 0.95 * max_corr / np.abs(off).max()
        cov = corr * shrink
        np.fill_diagonal(cov, 1.0)
        return cov * np.outer(d, d)


def all_output_modelset(costs, num_outputs=1):
    from mlblue.models import ModelSet

    outs = [list(range(1, num_outputs + 1))] * len(costs)
    return ModelSet(costs, outputs=outs, num_outputs=num_outputs)


def assert_outcome(call, outcome):
    """``call()`` raises ``outcome``'s type with its message when ``outcome``
    is an exception, and returns ``outcome`` otherwise."""
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome), match=re.escape(str(outcome))):
            call()
    else:
        assert call() == outcome
