"""Extended-precision oracles, independent of the package implementation.

Everything here is computed with mpmath at 50 significant digits straight
from the definitions — no calls into logpool — so agreement is evidence,
not circularity.  Plain Python lists of mpf in, floats out.
"""

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def _mpf_list(values):
    return [mp.mpf(repr(float(v))) for v in values]


def mp_log_pool(ps, betas):
    """Normalized weighted geometric mean, from the definition."""
    ps = [_mpf_list(p) for p in ps]
    betas = _mpf_list(betas)
    m = len(ps[0])
    unnorm = []
    for o in range(m):
        acc = mp.mpf(0)
        for p, b in zip(ps, betas):
            acc += b * mp.log(p[o])
        unnorm.append(mp.e**acc)
    z = mp.fsum(unnorm)
    return [u / z for u in unnorm]


def mp_log_z(ps, betas):
    """Log-normalizer of the unnormalized weighted geometric mean."""
    ps = [_mpf_list(p) for p in ps]
    betas = _mpf_list(betas)
    m = len(ps[0])
    unnorm = []
    for o in range(m):
        acc = mp.mpf(0)
        for p, b in zip(ps, betas):
            acc += b * mp.log(p[o])
        unnorm.append(mp.e**acc)
    return float(mp.log(mp.fsum(unnorm)))


def mp_linear_pool(ps, betas):
    """Plain mixture."""
    ps = [_mpf_list(p) for p in ps]
    betas = _mpf_list(betas)
    m = len(ps[0])
    return [mp.fsum(b * p[o] for p, b in zip(ps, betas)) for o in range(m)]


def mp_entropy(p):
    p = _mpf_list(p)
    return float(-mp.fsum(x * mp.log(x) for x in p))


def mp_kl(p, q):
    p = _mpf_list(p)
    q = _mpf_list(q)
    return float(mp.fsum(a * mp.log(a / b) for a, b in zip(p, q)))


def mp_welfare_gap(agent, pooled):
    """E_pool[log agent] − E_agent[log agent], straight from the definition."""
    agent = _mpf_list(agent)
    pooled = _mpf_list(pooled)
    log_r = [mp.log(x) for x in agent]
    e_pool = mp.fsum(w * lr for w, lr in zip(pooled, log_r))
    e_self = mp.fsum(x * lr for x, lr in zip(agent, log_r))
    return float(e_pool - e_self)


def tv_against(p_np, mp_values):
    """Total variation between a float vector and an mpf oracle vector."""
    return float(
        mp.mpf("0.5")
        * mp.fsum(abs(mp.mpf(repr(float(x))) - v) for x, v in zip(p_np, mp_values))
    )


def max_abs_against(values_np, mp_values):
    return float(
        max(abs(mp.mpf(repr(float(x))) - v) for x, v in zip(values_np, mp_values))
    )


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def mp_tilt_log_normalizer(p, f, t):
    """log E_P[exp(t * f)] for P = p / sum(p), the log-normalizer of P
    tilted by t * f."""
    p, f = _mpf_list(p), _mpf_list(f)
    t = mp.mpf(repr(float(t)))
    return float(mp.log(mp.fsum(pi * mp.e ** (t * fi) for pi, fi in zip(p, f)) / mp.fsum(p)))


def mp_transported_gaps(children, parent, u):
    """Welfare gaps after moving the pool P to the target T = P·e^u/Z: each
    child C becomes C·e^u/Z_C, the transport that keeps the weights, and is
    scored against T, all from the definitions."""
    u = _mpf_list(u)
    target = _normalized([p * mp.e**x for p, x in zip(_mpf_list(parent), u)])
    gaps = []
    for child in children:
        moved = _normalized([c * mp.e**x for c, x in zip(_mpf_list(child), u)])
        log_r = [mp.log(x) for x in moved]
        gaps.append(float(mp.fsum((t - c) * lr for t, c, lr in zip(target, moved, log_r))))
    return gaps


def _normalized(values):
    z = mp.fsum(values)
    return [v / z for v in values]
