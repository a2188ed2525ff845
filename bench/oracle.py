"""Reference results for the benchmark's output checks.

Everything here is computed from the method's definitions with numpy and
scipy alone, without importing mnri, so it holds for any workload seed:

* nested fits by batched Fisher scoring (``np.linalg.solve`` on stacked
  information matrices) instead of mnri's per-fit loop and Cholesky;
* spline columns from the unnormalized restricted cubic basis (column
  scaling changes coefficients but no fitted value or statistic);
* single-sample p-values from ``scipy.stats.chi2.sf``;
* train/test p-values (q = 1) from the product-normal law instead of
  Imhof inversion: c (X1 - X2) with X1, X2 independent chi-square(1)
  equals 2c U V with U, V independent standard normals, whose density is
  K0(|x|) / pi, so P(UV > s) = 1/2 - int_0^s K0 / pi (``iti0k0``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats

PHI0 = 1.0 / np.sqrt(2.0 * np.pi)
PROB_EPS = 1e-12
KNOT_QUANTILES = {3: (0.10, 0.50, 0.90), 4: (0.05, 0.35, 0.65, 0.95), 5: (0.05, 0.275, 0.50, 0.725, 0.95)}


def _link(kind: str, eta, y):
    """Fitted probability, information weight and score residual."""
    if kind == "logit":
        p = special.expit(eta)
        return p, p * (1.0 - p), y - p
    p = np.clip(special.ndtr(eta), PROB_EPS, 1.0 - PROB_EPS)
    d = PHI0 * np.exp(-0.5 * eta * eta)
    return p, d * d / (p * (1.0 - p)), d / (p * (1.0 - p)) * (y - p)


@dataclass
class Fit:
    beta: np.ndarray  # (..., m)
    eta: np.ndarray  # (..., n)
    probs: np.ndarray
    residuals: np.ndarray
    information: np.ndarray  # (..., m, m), summed over observations
    converged: np.ndarray  # (...) bool


def fit(y, design, kind: str, max_iter: int = 60) -> Fit:
    """Maximum likelihood by plain Fisher scoring, batched over leading axes."""
    beta = np.zeros(design.shape[:-2] + design.shape[-1:])
    converged = np.zeros(design.shape[:-2], dtype=bool)
    for _ in range(max_iter):
        eta = np.einsum("...nm,...m->...n", design, beta)
        _, weight, resid = _link(kind, eta, y)
        score = np.einsum("...nm,...n->...m", design, resid)
        info = np.einsum("...nm,...n,...nk->...mk", design, weight, design)
        step = np.linalg.solve(info, score[..., None])[..., 0]
        beta = beta + step
        converged = np.max(np.abs(step), axis=-1) <= 1e-10 * (1.0 + np.max(np.abs(beta), axis=-1))
        if converged.all():
            break
    converged &= np.all(np.isfinite(beta), axis=-1) & (np.linalg.norm(beta, axis=-1) < 1e3)
    eta = np.einsum("...nm,...m->...n", design, beta)
    probs, weight, resid = _link(kind, eta, y)
    info = np.einsum("...nm,...n,...nk->...mk", design, weight, design)
    return Fit(beta, eta, np.clip(probs, PROB_EPS, 1.0 - PROB_EPS), resid, info, converged)


def half_nri(residuals, delta, ybar, *, smooth: bool):
    ind = special.ndtr(delta) if smooth else np.where(delta > 0, 1.0, np.where(delta < 0, 0.0, 0.5))
    n = residuals.shape[-1]
    return np.sum(residuals * (ind - 0.5), axis=-1) / (n * ybar * (1.0 - ybar))


def gamma_cov(information, n, p):
    info = information / np.asarray(n)[..., None, None]
    bb, bg, gg = info[..., :p, :p], info[..., :p, p:], info[..., p:, p:]
    schur = gg - np.swapaxes(bg, -1, -2) @ np.linalg.solve(bb, bg)
    inv = np.linalg.inv(schur)
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def paired_weight(var_train, var_test):
    """Mixture weight w of the (+w, -w) pair for q = 1."""
    return np.where(var_train == var_test, 1.0, np.sqrt(var_train / var_test))


def paired_tail(t, c):
    """P(c (X1 - X2) > t) for independent chi-square(1) X1, X2 and c > 0."""
    s = np.asarray(t, dtype=float) / (2.0 * c)
    half = special.iti0k0(np.abs(s))[1] / np.pi
    return np.clip(0.5 - np.sign(s) * half, 0.0, 1.0)


def chisq_tail(statistic, k, q):
    return stats.chi2.sf(np.maximum(statistic, 0.0) / k, q)


def normal_two_sided(statistic, variance):
    return 2.0 * special.ndtr(-np.abs(statistic) / np.sqrt(variance))


def rcs_columns(x, knots):
    """Restricted cubic spline basis without range normalization."""
    t = np.asarray(knots, dtype=float)
    k = t.shape[0]

    def cube(v):
        return np.maximum(v, 0.0) ** 3

    cols = [x]
    for j in range(k - 2):
        cols.append(
            cube(x - t[j])
            - cube(x - t[k - 2]) * (t[k - 1] - t[j]) / (t[k - 1] - t[k - 2])
            + cube(x - t[k - 1]) * (t[k - 2] - t[j]) / (t[k - 1] - t[k - 2])
        )
    return np.column_stack(cols)


# --------------------------------------------------------------- compare


@dataclass
class Nested:
    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    expanded: Fit
    base: Fit

    @property
    def ybar(self):
        return float(self.y.mean())

    @property
    def delta(self):
        return self.expanded.eta - self.base.eta


def _nested(y, x, z, kind) -> Nested:
    expanded = fit(y, np.hstack([x, z]), kind)
    base = fit(y, x, kind)
    if not (expanded.converged and base.converged):
        raise ValueError("reference fit did not converge")
    return Nested(y, x, z, expanded, base)


def _design(table, header, base, new, knots):
    col = {name: table[:, header.index(name)] for name in header}
    def expand(names):
        return [rcs_columns(col[c], knots[c]) if c in knots else col[c][:, None] for c in names]
    x = np.hstack([np.ones((table.shape[0], 1)), *expand(base)])
    return x, np.hstack(expand(new))


def compare_report(train_csv, *, outcome, base, new, link="logit", spline=None, test_csv=None) -> dict:
    """The statistics, references and p-values ``mnri compare`` reports."""
    spline = spline or {}

    def load(path):
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
        return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    header, train_table = load(train_csv)
    knots = {
        c: np.quantile(train_table[:, header.index(c)], KNOT_QUANTILES[k]) for c, k in spline.items()
    }

    def nested_for(table):
        x, z = _design(table, header, base, new, knots)
        return _nested(table[:, header.index(outcome)], x, z, link)

    train = nested_for(train_table)
    if test_csv is None:
        fits, delta_test, n_train = train, train.delta, None
    else:
        fits = nested_for(load(test_csv)[1])
        p = fits.x.shape[1]
        beta = train.expanded.beta
        delta_test = fits.x @ beta[:p] + fits.z @ beta[p:] - fits.x @ train.base.beta
        n_train = train.y.shape[0]

    y, ybar, n = fits.y, fits.ybar, fits.y.shape[0]
    delta = fits.delta
    resid_base = fits.base.residuals
    mnri_hard = float(half_nri(resid_base, delta, ybar, smooth=False))
    mad = float(np.mean(np.abs(fits.expanded.probs - fits.base.probs)))
    scaled_mad = mad / (2.0 * ybar * (1.0 - ybar))
    signs = np.sign(delta)
    k = PHI0 / (ybar * (1.0 - ybar))
    n1 = int(np.count_nonzero(y == 1.0))
    variance = 1.0 / (4.0 * n1) + 1.0 / (4.0 * (n - n1))
    q = fits.z.shape[1]

    if test_csv is None:
        statistic = n * float(half_nri(resid_base, delta, ybar, smooth=True))
        mnri_test = {
            "statistic": statistic,
            "reference": {"kind": "scaled_chisq", "k": k, "q": q},
            "p_value": float(chisq_tail(statistic, k, q)),
        }
    else:
        if q != 1:
            raise ValueError("the train/test reference here covers one new column")
        statistic = n * float(half_nri(resid_base, delta_test, ybar, smooth=True))
        p = fits.x.shape[1]
        var_train = gamma_cov(train.expanded.information, train.y.shape[0], p)[0, 0]
        var_test = gamma_cov(fits.expanded.information, n, p)[0, 0]
        w = float(paired_weight(var_train, var_test))
        mnri_test = {
            "statistic": statistic,
            "reference": {"kind": "chisq_mixture", "scale": k / 2.0, "weights": [w, -w]},
            "p_value": float(paired_tail(statistic, k / 2.0 * w)),
        }
    legacy = float(half_nri(y - ybar, delta_test, ybar, smooth=False))
    return {
        "nri_hard": float(half_nri(y - ybar, delta, ybar, smooth=False)),
        "nri_smooth": float(half_nri(y - ybar, delta, ybar, smooth=True)),
        "mnri_hard": mnri_hard,
        "mnri_smooth": float(half_nri(resid_base, delta, ybar, smooth=True)),
        "mad": mad,
        "scaled_mad": scaled_mad,
        "mad_cross_term": mnri_hard - scaled_mad,
        "sign_inner": float(signs @ resid_base),
        "sign_norm": int(np.count_nonzero(signs)),
        "ties": int(np.count_nonzero(delta == 0.0)),
        "mnri_test": mnri_test,
        "nri_test_legacy": {
            "statistic": legacy,
            "reference": {"kind": "normal", "variance": variance},
            "p_value": float(normal_two_sided(legacy, variance)),
        },
        "mode": "single" if test_csv is None else "train_test",
        "n": n,
        "n_events": n1,
        "n_train": n_train,
        "link": link,
    }


# -------------------------------------------------------------- simulate


def _replicates(seed, cell, reps, part, n, pi0, mu_x, rho):
    """The conditional-binormal replicates of one cell (enforced null, first
    attempt), drawn from the same counter-based streams as ``mnri simulate``."""
    y = np.empty((reps, n))
    x = np.ones((reps, n, 2))
    z = np.empty((reps, n, 1))
    for rep in range(reps):
        key = np.random.SeedSequence([seed % 2**64, cell, rep, 0, part])
        stream = np.random.Generator(np.random.Philox(key))
        y[rep] = stream.random(n) < pi0
        e1 = stream.standard_normal(n)
        e2 = stream.standard_normal(n)
        x[rep, :, 1] = mu_x * y[rep] + e1
        z[rep, :, 0] = rho * x[rep, :, 1] + np.sqrt(1.0 - rho**2) * e2
    return y, x, z


def simulate_cell(*, seed, cell, n, pi0, mu_x, rho, reps, mode, alpha=0.05):
    """Rejection counts (mnri, legacy nri) of one cell, and the number of
    replicates whose reference fit did not converge (left unresolved)."""
    def nested(part):
        y, x, z = _replicates(seed, cell, reps, part, n, pi0, mu_x, rho)
        expanded = fit(y, np.concatenate([x, z], axis=-1), "logit")
        base = fit(y, x, "logit")
        return y, x, z, expanded, base

    y, x, z, expanded, base = nested(1 if mode == "train_test" else 0)
    ybar = y.mean(axis=-1)
    k = PHI0 / (ybar * (1.0 - ybar))
    unresolved = ~(expanded.converged & base.converged)
    if mode == "single":
        delta = expanded.eta - base.eta
        statistic = n * half_nri(base.residuals, delta, ybar, smooth=True)
        p_mnri = chisq_tail(statistic, k, 1)
    else:
        _, _, _, train_expanded, train_base = nested(0)
        unresolved |= ~(train_expanded.converged & train_base.converged)
        beta = train_expanded.beta
        delta = (
            np.einsum("rnm,rm->rn", x, beta[:, :2] - train_base.beta) + z[..., 0] * beta[:, 2:]
        )
        statistic = n * half_nri(base.residuals, delta, ybar, smooth=True)
        w = paired_weight(
            gamma_cov(train_expanded.information, n, 2)[:, 0, 0],
            gamma_cov(expanded.information, n, 2)[:, 0, 0],
        )
        p_mnri = paired_tail(statistic, k / 2.0 * w)
    n1 = y.sum(axis=-1)
    variance = 1.0 / (4.0 * n1) + 1.0 / (4.0 * (n - n1))
    p_nri = normal_two_sided(half_nri(y - ybar[:, None], delta, ybar, smooth=False), variance)
    resolved = ~unresolved
    return (
        int(np.count_nonzero((p_mnri <= alpha) & resolved)),
        int(np.count_nonzero((p_nri <= alpha) & resolved)),
        int(np.count_nonzero(unresolved)),
    )
