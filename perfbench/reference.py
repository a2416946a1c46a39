"""Reference values computed without the package under test.

Everything here works from the JSON model documents with numpy and the math
module: closed forms where they exist, and a composite Gauss-Legendre rule
in the jump log-size z (a different rule from the engine's Gauss-Hermite
doubling) for Gaussian jump bodies.  The exchange option is priced by
conditioning on the jump counts (a Merton-style Poisson series), not by the
engine's contour integral.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)


def norm_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def parse_complex(text) -> complex:
    """Parse the engine's "a+bi" rendering (also plain reals)."""
    if isinstance(text, (int, float)):
        return complex(text)
    text = str(text)
    return complex(text[:-1] + "j" if text.endswith("i") else text)


# ---------------------------------------------------------------------------
# one-dimensional jump integrals
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def _panel_rule(lo, hi, breaks, n_panels=64):
    """Composite Gauss-Legendre nodes/weights on [lo, hi], panels split at
    ``breaks`` so that kinks sit on panel edges."""
    edges = np.linspace(lo, hi, n_panels + 1)
    edges = np.unique(np.concatenate([edges, [b for b in breaks if lo < b < hi]]))
    a, b = edges[:-1, None], edges[1:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X[None, :]
    w = 0.5 * (b - a) * _GL_W[None, :]
    return x.ravel(), w.ravel()


def _trunc(kind, x):
    if kind == "zero":
        return np.zeros_like(x)
    if kind == "identity":
        return x
    return np.where(np.abs(x) <= 1.0, x, 0.0)


def jump_integral(doc, f):
    """int f(x) F(dx) for a one-dimensional levy document; f is vectorised."""
    total = 0.0 + 0.0j
    for part in doc["jumps"]:
        if part["kind"] == "atoms":
            for atom in part["atoms"]:
                total += atom["intensity"] * complex(f(np.array([atom["x"][0]]))[0])
        else:
            m, s = part["mean"][0], math.sqrt(part["cov"][0][0])
            z, w = _panel_rule(m - 14.0 * s, m + 14.0 * s, [LOG2])
            dens = np.exp(-0.5 * ((z - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
            total += part["lambda"] * complex(np.sum(w * dens * f(np.expm1(z))))
    return total


def _triplet(doc):
    return doc["b"][0], doc["c"][0][0], doc["truncation"][0]


def kappa(v, doc) -> complex:
    """Exponent rate of e^{vX}: v b + v^2 c / 2 + int (e^{vx} - 1 - v h(x)) F(dx)."""
    b, c, tr = _triplet(doc)
    return v * b + 0.5 * v * v * c + jump_integral(
        doc, lambda x: np.expm1(v * x) - v * _trunc(tr, x)
    )


def kappa_q(v, lam, doc) -> complex:
    """Exponent rate of e^{vX} under the measure generated by the utility kernel
    e^{-lam(e^x - 1)} - 1: the plain drift of (1 + eta) xi."""
    b, c, tr = _triplet(doc)
    return v * b + 0.5 * (v * v - 2.0 * lam * v) * c + jump_integral(
        doc, lambda x: np.exp(-lam * np.expm1(x)) * np.expm1(v * x) - v * _trunc(tr, x)
    )


def utility(lam, doc):
    """Drift of e^{-lam(e^x - 1)} - 1 and its first two lam-derivatives."""
    b, c, tr = _triplet(doc)
    u = -lam * b + 0.5 * (lam * lam - lam) * c + jump_integral(
        doc, lambda x: np.expm1(-lam * np.expm1(x)) + lam * _trunc(tr, x)
    )
    d1 = -b + (lam - 0.5) * c + jump_integral(
        doc, lambda x: _trunc(tr, x) - np.expm1(x) * np.exp(-lam * np.expm1(x))
    )
    d2 = c + jump_integral(doc, lambda x: np.expm1(x) ** 2 * np.exp(-lam * np.expm1(x)))
    return u.real, d1.real, d2.real


def lambda_star(doc, bracket):
    """Minimiser of the (strictly convex) utility drift, by safeguarded Newton."""
    lo, hi = bracket
    b, c, _ = _triplet(doc)
    lam = min(max(b / c + 0.5 if c > 0 else 1.0, lo), hi)
    for _ in range(100):
        _, d1, d2 = utility(lam, doc)
        if d1 > 0:
            hi = min(hi, lam)
        else:
            lo = max(lo, lam)
        step = d1 / d2
        new = lam - step
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - lam) <= 1e-15 * (1.0 + abs(lam)):
            lam = new
            break
        lam = new
    return lam, utility(lam, doc)[0]


# ---------------------------------------------------------------------------
# catalog representations and discrete-time products
# ---------------------------------------------------------------------------


def catalog(name, params):
    """The scalar catalog representations used by the workloads, as numpy maps."""
    if name == "exp_affine":
        v = parse_complex(params["v"])
        return lambda x: np.expm1(v * x)
    if name == "power":
        v = parse_complex(params["v"])
        return lambda x: (1.0 + x + 0j) ** v - 1.0
    if name == "exp_utility":
        lam = float(params["lambda"])
        return lambda x: np.expm1(-lam * np.expm1(x))
    raise ValueError(f"no reference for catalog function {name!r}")


def discrete(doc, op, xi, eta, T):
    x = np.array([s["x"][0] for s in doc["support"]], dtype=float)
    p = np.array([s["p"] for s in doc["support"]], dtype=float)
    steps = math.floor(T)
    fx = catalog(*xi)(x)
    if op == "compensator":
        return steps * complex(np.sum(p * fx))
    if op == "stoch-exp":
        return complex(np.sum(p * (1.0 + fx))) ** steps
    fe = catalog(*eta)(x)
    return (complex(np.sum(p * (1.0 + fe) * (1.0 + fx))) / complex(np.sum(p * (1.0 + fe)))) ** steps


# ---------------------------------------------------------------------------
# multivariate power representations on Gaussian push-forward bodies
# ---------------------------------------------------------------------------


def drift_power(doc, a) -> complex:
    """Drift of prod (1 + x_i)^{a_i} - 1 on a levy document with one Gaussian
    push-forward body: on the body the map is e^{a.z} - 1, so the jump
    integral is lam (e^{a.m + a'Sa/2} - 1) minus the truncation term."""
    a = np.asarray(a, dtype=float)
    b, c = np.asarray(doc["b"], float), np.asarray(doc["c"], float)
    (part,) = doc["jumps"]
    lam, m, S = part["lambda"], np.asarray(part["mean"], float), np.asarray(part["cov"], float)
    H = np.outer(a, a) - np.diag(a)
    trunc = np.zeros(a.size)
    for i, kind in enumerate(doc["truncation"]):
        mi, si2 = m[i], S[i, i]
        if kind == "identity":
            trunc[i] = lam * math.expm1(mi + 0.5 * si2)
        elif kind == "unit_clip":
            si = math.sqrt(si2)
            trunc[i] = lam * (
                math.exp(mi + 0.5 * si2) * norm_cdf((LOG2 - mi - si2) / si) - norm_cdf((LOG2 - mi) / si)
            )
    smooth = lam * math.expm1(a @ m + 0.5 * a @ S @ a)
    return complex(a @ b + 0.5 * np.sum(H * c) + smooth - a @ trunc)


# ---------------------------------------------------------------------------
# exchange option
# ---------------------------------------------------------------------------


def _margrabe_lognormal(f1, f2, var):
    if var <= 0.0:
        return max(f1 - f2, 0.0)
    s = math.sqrt(var)
    d1 = (math.log(f1 / f2) + 0.5 * var) / s
    return f1 * norm_cdf(d1) - f2 * norm_cdf(d1 - s)


def margrabe_price(doc) -> float:
    """E[(S1_T - S2_T)^+] for the martingale-normalised exchange model.

    Atom events kill an asset.  If asset 1 survives and asset 2 is killed
    the payoff is S1_T, whose expectation collapses to
    S1 (1 - e^{-T sum (1 + x1) lam_k}) over the asset-2 default atoms.  With
    no atom event both assets are lognormal given the number n of body
    jumps, so that part is a Poisson mixture of Margrabe formulas.
    """
    s1, s2, T = doc["spot1"], doc["spot2"], doc["maturity"]
    diff = doc.get("diffusion", {})
    c11, c12, c22 = diff.get("sigma1_sq", 0.0), diff.get("sigma12", 0.0), diff.get("sigma2_sq", 0.0)
    jump = doc.get("jump") or {}
    lam = jump.get("lambda", 0.0)
    m1, m2 = jump.get("mean", (0.0, 0.0))
    (S11, S12), (_, S22) = jump.get("cov", ((0.0, 0.0), (0.0, 0.0)))
    atoms = [(a["x"][0], a["x"][1], a["intensity"]) for a in doc.get("defaults", [])]

    int_x1 = lam * math.expm1(m1 + 0.5 * S11) + sum(r * x1 for x1, _, r in atoms)
    int_x2 = lam * math.expm1(m2 + 0.5 * S22) + sum(r * x2 for _, x2, r in atoms)
    lam2_q1 = sum(r * (1.0 + x1) for x1, x2, r in atoms if x2 == -1.0 and x1 != -1.0)
    default_part = s1 * -math.expm1(-lam2_q1 * T)

    no_atom = math.exp(-T * sum(r for _, _, r in atoms))
    mu1 = math.log(s1) - T * int_x1 - 0.5 * c11 * T
    mu2 = math.log(s2) - T * int_x2 - 0.5 * c22 * T
    mix, n, weight = 0.0, 0, math.exp(-lam * T)
    while True:
        v11, v22, v12 = c11 * T + n * S11, c22 * T + n * S22, c12 * T + n * S12
        f1 = math.exp(mu1 + n * m1 + 0.5 * v11)
        f2 = math.exp(mu2 + n * m2 + 0.5 * v22)
        mix += weight * _margrabe_lognormal(f1, f2, v11 - 2.0 * v12 + v22)
        n += 1
        weight *= lam * T / n
        if n > lam * T and weight < 1e-18:
            break
    return default_part + no_atom * mix
