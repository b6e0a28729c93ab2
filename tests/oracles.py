"""The printed closed-form laws of the catalog's models, the oracles that the
sampler is checked against.

Each is written from its printed formula in numpy and scipy.stats and
shares no code with the package: a conditional or marginal is a frozen
scipy.stats law, and the rest are plain functions.  They take valid
arguments and do not check them.
"""

import math

import numpy as np
from scipy import stats


def normal_conditional_mu(xbar, sigma2, n):
    """mu given sigma2 in the normal model: N(xbar, sigma2 / n)."""
    return stats.norm(xbar, math.sqrt(sigma2 / n))


def normal_conditional_sigma2(mu, x):
    """sigma2 given mu in the normal model: the scaled inverse chi-square
    law with n degrees of freedom and scale mean((x - mu)^2), that is, the
    inverse gamma law of shape n / 2 and scale sum((x - mu)^2) / 2."""
    x = np.asarray(x, dtype=float)
    return stats.invgamma(x.size / 2.0, scale=0.5 * float(np.sum((x - mu) ** 2)))


def normal_marginal_mu(x):
    """The marginal of mu in the normal model: Student t with n - 1 degrees
    of freedom, located at the sample mean, with scale s / sqrt(n)."""
    x = np.asarray(x, dtype=float)
    return stats.t(x.size - 1, loc=float(np.mean(x)),
                   scale=float(np.std(x, ddof=1)) / math.sqrt(x.size))


def pareto_conditional_alpha(beta, x):
    """alpha given beta in the Pareto model: Gamma(n) with rate
    sum(log x_i) - n log beta."""
    x = np.asarray(x, dtype=float)
    return stats.gamma(x.size, scale=1.0 / (float(np.sum(np.log(x))) - x.size * math.log(beta)))


def pareto_conditional_beta_log_density(beta, alpha, x):
    """Log density of beta given alpha in the Pareto model,
    n alpha beta^(n alpha - 1) / min(x)^(n alpha) on (0, min(x)]."""
    x = np.asarray(x, dtype=float)
    m, k = float(np.min(x)), x.size * alpha
    if not 0.0 < beta <= m:
        return -math.inf
    return math.log(k) + (k - 1.0) * math.log(beta) - k * math.log(m)


def quadreg_conditionals(b0, b1, b2, sigma2, x, y):
    """The four printed full conditionals of y = b0 + b1 x + b2 x^2 + e,
    e ~ N(0, sigma2), each given the other three parameters.

    beta_j is normal with mean (sum(x^j y) - sum over k != j of
    b_k sum(x^(j+k))) / sum(x^2j) and variance sigma2 / sum(x^2j); sigma2 is
    inverse gamma of shape n / 2 and scale RSS / 2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b = (b0, b1, b2)
    out = {}
    for j in range(3):
        sxx = float(np.sum(x ** (2 * j)))
        rest = sum(b[k] * float(np.sum(x ** (j + k))) for k in range(3) if k != j)
        out[f"beta{j}"] = stats.norm((float(np.sum(x ** j * y)) - rest) / sxx,
                                     math.sqrt(sigma2 / sxx))
    rss = float(np.sum((y - b0 - b1 * x - b2 * x * x) ** 2))
    out["sigma2"] = stats.invgamma(x.size / 2.0, scale=0.5 * rss)
    return out


def behrens_fisher_direct_draws(x, y, size, gen):
    """size independent draws of mu_x - mu_y by the direct construction,
    from the numpy Generator gen.

    xbar - ybar + B sqrt(s_x^2 / n_x + s_y^2 / n_y), B following the
    Behrens-Fisher law, is the difference of two independent Student t
    draws with n - 1 degrees of freedom, each scaled by its group's
    s / sqrt(n).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tx = gen.standard_t(x.size - 1, size=size)
    ty = gen.standard_t(y.size - 1, size=size)
    return (float(np.mean(x)) - float(np.mean(y))
            + math.sqrt(float(np.var(x, ddof=1)) / x.size) * tx
            - math.sqrt(float(np.var(y, ddof=1)) / y.size) * ty)


def bvn_log_likelihood(mu_x, mu_y, sigma_x2, sigma_y2, rho, x, y):
    """Bivariate normal log likelihood of the pairs (x_i, y_i), additive
    constant dropped, from the standardized residuals."""
    zx = (np.asarray(x, dtype=float) - mu_x) / math.sqrt(sigma_x2)
    zy = (np.asarray(y, dtype=float) - mu_y) / math.sqrt(sigma_y2)
    one_m = 1.0 - rho * rho
    quad = float(np.sum(zx * zx - 2.0 * rho * zx * zy + zy * zy))
    return -0.5 * zx.size * math.log(sigma_x2 * sigma_y2 * one_m) - 0.5 * quad / one_m
