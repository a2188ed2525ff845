import numpy as np
import pytest

from mnri import reclass
from mnri.glm import LOGIT, Dataset, FittedModel, NestedFits


def build_manual_fits(y, xv, zv, base_coef, expanded_coef, link=LOGIT):
    """NestedFits with hand-fixed coefficients (no fitting), for worked
    examples where every statistic is checkable by direct arithmetic."""
    y = np.asarray(y, dtype=float)
    xv = np.asarray(xv, dtype=float)
    zv = np.asarray(zv, dtype=float)
    n = y.shape[0]
    data = Dataset(y=y, x=np.column_stack([np.ones(n), xv]), z=zv[:, None])

    def manual(coefficients, design):
        coefficients = np.asarray(coefficients, dtype=float)
        eta = design @ coefficients
        probs = link.prob(eta)
        loglik = float(y @ np.log(probs) + (1 - y) @ np.log1p(-probs))
        return FittedModel(
            coefficients=coefficients,
            linear_predictor=eta,
            fitted_probs=probs,
            loglik=loglik,
            expected_information=np.eye(coefficients.shape[0]),
            iterations=0,
        )

    ybar = y.mean()
    constant_eta = np.log(ybar / (1 - ybar)) if link.kind == "logit" else 0.0
    return NestedFits(
        expanded=manual(expanded_coef, np.hstack([data.x, data.z])),
        base=manual(base_coef, data.x),
        constant=manual([constant_eta], np.ones((n, 1))),
        link=link,
        data=data,
    )


@pytest.fixture
def manual_fits():
    return build_manual_fits


@pytest.fixture
def half_nris_calls(monkeypatch):
    """Records every pass of the statistics kernel ``reclass._half_nris``."""
    calls = []
    original = reclass._half_nris

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(reclass, "_half_nris", counted)
    return calls
