"""Exponent estimation, two-zone chain structure checks, and calibrations.

The localization story is quantitative: hit probabilities decay like a
power of the horizon. This module fits those exponents from exact or
sampled curves, verifies the algebraic structure the two-zone construction
relies on (reversibility, heat-kernel flatness), and searches for concrete
parameter witnesses for the band-sum and exit/containment inequalities.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import defaults
from .dp import MAX, _forward, _forward_curve, _optimal_curve, _passes, evolve, solve_extremal
from .errors import CalibrationError, ParameterError, as_count, as_index, as_real
from .lattice import FLOAT, RATIONAL, _as_mode_value, interval_mass
from .montecarlo import _fork_cores, _in_shards, estimate_hit
from .policies import (
    PolicySpec,
    _check_cap,
    _rules,
    constant_policy,
    fast_until_zero_policy,
    multiscale_localization_schedule,
    multiscale_qto1_schedule,
    schedule_policy,
    two_zone_policy,
)

# ---------------------------------------------------------------------------
# power-law exponent fitting


@dataclass(frozen=True)
class ExponentFit:
    points: tuple  # (n, p) pairs actually used
    sigma_hat: float
    intercept: float
    r_squared: float
    residuals: tuple
    min_n: int  # exclusion cutoff applied to the input
    n_min: int  # smallest n used
    n_max: int  # largest n used
    local_slopes: tuple  # (n1, n2, -log(p2/p1)/log(n2/n1)) per consecutive pair used


def fit_exponent(points, min_n: int = defaults.MIN_FIT_N) -> ExponentFit:
    """Least squares of log p against log n; sigma_hat is minus the slope.

    Points with n below min_n are dropped before fitting (pre-asymptotic
    transients bias the slope); the cutoff is recorded in the result.
    """
    pts = [(as_index(n, "n"), float(p)) for n, p in points]
    min_n = as_count(min_n, "min_n", 1)
    if len(pts) < 3:
        raise ParameterError("need at least 3 points")
    for (n1, _), (n2, _) in zip(pts, pts[1:]):
        if n2 <= n1:
            raise ParameterError("n values must be strictly increasing")
    for n, p in pts:
        if not 0 < p < math.inf:  # NaN fails too
            raise ParameterError(f"p={p} at n={n} is not positive and finite; check target "
                                 "parity, or whether a fast-decaying curve underflowed float64")
    kept = [(n, p) for n, p in pts if n >= min_n]
    if len(kept) < 3:
        raise ParameterError(f"only {len(kept)} points at n >= {min_n}; need 3")

    x = np.log([n for n, _ in kept])
    y = np.log([p for _, p in kept])
    xc = x - x.mean()
    yc = y - y.mean()
    slope = float(np.dot(xc, yc) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(yc, yc))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(
        points=tuple(kept),
        sigma_hat=-slope + 0.0,
        intercept=intercept,
        r_squared=r2,
        residuals=tuple(float(r) for r in resid),
        min_n=min_n,
        n_min=kept[0][0],
        n_max=kept[-1][0],
        local_slopes=tuple((n1, n2, -math.log(p2 / p1) / math.log(n2 / n1))
                           for (n1, p1), (n2, p2) in zip(kept, kept[1:])),
    )


# the params each sweep kind reads ("optimal" is solved, not built);
# exponent_sweep also takes seed and trials for the mc method
SWEEP_PARAMS = {
    "constant": ("u_value",), "two-zone": ("band",), "fast-until-zero": (),
    "schedule-localization": ("alpha", "beta", "K0"), "schedule-qto1": ("A",),
    "optimal": ("objective",),
}


def check_sweep_params(policy_kind: str, params: dict, extra=()) -> None:
    """Reject params the kind does not read (extra: more accepted keys)."""
    unread = sorted(set(params) - set(SWEEP_PARAMS.get(policy_kind, ())) - set(extra))
    if unread:
        raise ParameterError(f"{policy_kind} policy does not read {', '.join(unread)}")


def sweep_policy(policy_kind: str, q_cap: float, n: int, params: dict) -> PolicySpec:
    """Builtin policy for one sweep point; schedule kinds scale with n."""
    n = as_count(n, "n")
    if policy_kind == "constant":
        return constant_policy(q_cap, params.get("u_value", q_cap))
    if policy_kind == "two-zone":
        band = params.get("band", max(1, int(0.5 * math.sqrt(n))))
        return two_zone_policy(q_cap, band)
    if policy_kind == "fast-until-zero":
        return fast_until_zero_policy(q_cap)
    if policy_kind == "schedule-localization":
        segs = multiscale_localization_schedule(
            q_cap,
            params.get("alpha", defaults.LOC_ALPHA),
            params.get("beta", defaults.LOC_BETA),
            params.get("K0", defaults.LOC_K0),
            n,
        )
        return schedule_policy(q_cap, segs)
    if policy_kind == "schedule-qto1":
        segs = multiscale_qto1_schedule(q_cap, params.get("A", defaults.QTO1_A), n)
        return schedule_policy(q_cap, segs)
    raise ParameterError(f"unknown sweep policy kind {policy_kind!r}")


# steps each forked pass group must hold. Forking and reaping a child costs
# 2-4 ms on 2 cores. Two-zone and schedule-localization sweeps (q = 0.9) ran
# 35-38% faster forked with a child of 4,480 steps in 7 of 8 runs (4% in the
# other), and anywhere from 33% faster to 28% slower with children of 1,792
# to 3,584 steps; the floor lies between the two
_MIN_FORK_STEPS = 4096


def _pass_groups(passes, cores: int) -> list:
    """The (policy, {m}) passes in at most `cores` groups of balanced steps:
    largest horizon first, each to the group with the fewest steps so far.
    Fewer groups when one would hold under _MIN_FORK_STEPS; group 0 holds
    the largest pass."""
    for k in range(min(cores, len(passes)), 1, -1):
        groups, steps = [[] for _ in range(k)], [0] * k
        for policy, ms in sorted(passes, key=lambda item: -max(item[1])):
            i = steps.index(min(steps))
            groups[i].append((policy, ms))
            steps[i] += max(ms)
        if min(steps) >= _MIN_FORK_STEPS:
            return groups
    return [passes]


def _exact_curve(policy_kind: str, q_cap: float, grid: list, params: dict, min_n: int) -> dict:
    """{n: (exact P(S_n = 0), certified error bound)} over the grid from one
    pass per distinct policy (the optimum: one backward pass). A curve checks
    every point before any pass; the grid is checked last. The forward passes
    run in groups, one per core, all but group 0 in forked children."""
    def checked(points):
        yield from points
        fit_exponent([(n, 1.0) for n in grid], min_n)  # the fit's checks that read only n

    if policy_kind == "optimal":
        return _optimal_curve(q_cap, checked(grid), params.get("objective", MAX))
    passes = _passes(checked((n, sweep_policy(policy_kind, q_cap, n, params)) for n in grid))
    groups = _pass_groups(passes, _fork_cores())
    curves = _in_shards(lambda i: _forward_curve(groups[i]), len(groups), [0])
    return {m: pb for curve in curves for m, pb in curve.items()}


def exponent_sweep(
    policy_kind: str,
    q_cap: float,
    n_grid,
    method: str = "exact",
    params: dict | None = None,
    min_n: int | None = None,
) -> tuple[list[dict], ExponentFit]:
    """Hit probability per n plus the power-law fit over the grid."""
    if method not in ("exact", "mc"):
        raise ParameterError(f"method must be 'exact' or 'mc', got {method!r}")
    params = dict(params or {})
    check_sweep_params(policy_kind, params, ("seed", "trials") if method == "mc" else ())
    grid = [as_index(n, "n") for n in n_grid]
    min_n = defaults.MIN_FIT_N if min_n is None else as_index(min_n, "min_n")
    if method == "exact":  # every exact point is read off the sweep's curve
        curve = _exact_curve(policy_kind, q_cap, grid, params, min_n)
        points = {n: {"ci_low": None, "ci_high": None, "p": p, "error_bound": bound}
                  for n, (p, bound) in curve.items()}
    else:
        fit_exponent([(n, 1.0) for n in grid], min_n)  # the fit's checks that read only n
        seed = as_index(params.get("seed", 0), "seed")
        trials = as_count(params.get("trials", defaults.MC_TRIALS), "trials", 1)
        points = {}
        for n in grid:
            if policy_kind == "optimal":
                _, bb = solve_extremal(q_cap, n, params.get("objective", MAX), keep_values=False)
                pol = bb.as_policy()
            else:
                pol = sweep_policy(policy_kind, q_cap, n, params)
            est = estimate_hit(pol, n, trials=trials, seed=seed + n)
            points[n] = {"ci_low": est.ci_low, "ci_high": est.ci_high, "p": est.p_hat}
    records = [{"policy_kind": policy_kind, "q": q_cap, "n": n, "method": method, **points[n]}
               for n in grid]
    fit = fit_exponent([(r["n"], r["p"]) for r in records], min_n)
    return records, fit


# ---------------------------------------------------------------------------
# two-zone chain structure


@dataclass(frozen=True)
class ChainSpec:
    """Reversing measure and one-step kernel of the two-zone chain.

    pi is 2/(1-q) inside the band and 2 outside: the conductances of unit
    edges plus a self-loop of weight 2q/(1-q) inside the band.
    """

    q_cap: float
    band_halfwidth: int
    mode: str = FLOAT

    def __post_init__(self):
        two_zone_policy(self.q_cap, self.band_halfwidth)  # ParameterError on a bad cap or band
        if self.mode not in (FLOAT, RATIONAL):
            raise ParameterError(f"unknown numeric mode {self.mode!r}")

    def pi(self, x: int):
        q, two = (_as_mode_value(v, self.mode) for v in (self.q_cap, 2))
        return two / (1 - q) if abs(x) <= self.band_halfwidth else two

    def kernel(self, x: int, y: int):
        """One-step transition probability under the stay rule the engines run."""
        policy = two_zone_policy(self.q_cap, self.band_halfwidth)
        _, _, u, _, intervals = next(_rules(policy, 0, 1))
        inside = any(lo <= x <= hi for lo, hi in intervals)
        u, zero, half = (_as_mode_value(v, self.mode) for v in (u if inside else 0, 0, 0.5))
        if y == x:
            return u
        if abs(y - x) == 1:
            return (1 - u) * half
        return zero


def reversibility_check(chain: ChainSpec, K_window: int):
    """Max |pi(x) k(x,y) - pi(y) k(y,x)| over pairs inside [-K, K]."""
    K_window = as_count(K_window, "window")
    worst = _as_mode_value(0, chain.mode)
    for x in range(-K_window, K_window + 1):
        for y in (x, x + 1):
            if y > K_window:
                continue
            r = chain.pi(x) * chain.kernel(x, y) - chain.pi(y) * chain.kernel(y, x)
            r = abs(r)
            if r > worst:
                worst = r
    return worst


def heat_kernel_profile(chain: ChainSpec, t_grid) -> dict:
    """sup over probes x and all y of p^t(x,y)*sqrt(t), per grid time.

    Returns per-t suprema, the running max, and the final running max as an
    empirical bound constant. Exact evolution under the matching two-zone
    policy from HK_PROBE_FACTORS x band; use even t to dodge parity oscillation.
    """
    t_grid = sorted({as_count(t, "time in t_grid", 1) for t in t_grid})
    if not t_grid:
        raise ParameterError("t_grid must contain positive times")
    probes = tuple(sorted({int(f * chain.band_halfwidth) for f in defaults.HK_PROBE_FACTORS}))
    pol = two_zone_policy(chain.q_cap, chain.band_halfwidth)
    sup = {t: 0.0 for t in t_grid}
    for x0 in probes:
        for t, m in zip(t_grid, _forward(pol, t_grid[-1], x0, FLOAT, None, t_grid)):
            peak = float(m.sum(axis=0).max()) * math.sqrt(t)
            if peak > sup[t]:
                sup[t] = peak

    per_t = [(t, sup[t]) for t in t_grid]
    running = []
    best = 0.0
    for t, v in per_t:
        best = max(best, v)
        running.append((t, best))
    return {
        "per_t": per_t,
        "running_max": running,
        "bound_estimate": best,
        "probes": probes,
    }


# ---------------------------------------------------------------------------
# band-sum calibration (two-zone chain)


def band_sum_profile(q_cap: float, K: int, band: int, t: int, ys) -> dict:
    """sum over x in [-K, K] of P_x(walk at y at time t), via reversibility.

    Detailed balance turns the column sum into a single evolution from y:
        (1/(1-q)) * [P_y(in [-K, K]) - q * P_y(in [-band, band])].
    The identity needs the band inside [-K, K] and y inside the band.
    """
    pol = two_zone_policy(q_cap, band)
    K, ys, band = as_index(K, "K"), [as_index(y, "y") for y in ys], pol.params["band_halfwidth"]
    if band > K:
        raise ParameterError(f"band={band} exceeds K={K}; the identity needs the band inside [-K, K]")
    for y in ys:
        if abs(y) > band:
            raise ParameterError(f"y={y} lies outside the band [-{band}, {band}]")
    out = {}
    for y in ys:
        d = evolve(pol, t, y)
        m_outer = float(interval_mass(d, -K, K))
        m_band = float(interval_mass(d, -band, band))
        out[y] = (m_outer - q_cap * m_band) / (1.0 - q_cap)
    return out


def band_sum_direct(q_cap: float, K: int, band: int, t: int, ys) -> dict:
    """Same column sums by brute force: one evolution per start x in [-K, K]."""
    pol = two_zone_policy(q_cap, band)
    K, ys = as_count(K, "K"), [as_index(y, "y") for y in ys]
    total = {y: 0.0 for y in ys}
    for x in range(-K, K + 1):
        d = evolve(pol, t, x)
        for y in ys:
            total[y] += float(d.mass_at(y))
    return total


def _lemma5_scales(alpha: float, beta: float, K0: int) -> list:
    """(K, band floor(beta*K), horizon round(alpha*K^2)) at K = K0, 2*K0, 4*K0."""
    return [(K, int(math.floor(beta * K)), int(round(alpha * K * K))) for K in (K0, 2 * K0, 4 * K0)]


def calibrate_lemma5(q_cap: float) -> dict:
    """Search the defaults.L5_* grids for (alpha, beta, K0) making every
    band-sum exceed 1 + eps.

    Scales K0, 2*K0, 4*K0 are checked with band floor(beta*K) and horizon
    round(alpha*K^2), over every target y in the band. First candidate whose
    worst margin clears its rounding allowance wins; eps is 90% of that
    margin. The returned certificate carries every evaluated sum for
    bit-exact replay.

    Rounding allowance: a float step rounds each cell's mass at most 5 times,
    the interval sums at most 2K + 1 times and the identity 4 more, so a
    band sum at the largest scale (K, t) is off by at most
    E = (5t + 2K + 4) * 2^-52 / (1 - q) to first order. The margin must
    exceed 20E, so the exact margin exceeds 0.95 margin > eps. A candidate's
    margin only falls as scales are added, so it is dropped at the first
    scale that brings it to 20E or below.
    """
    q_cap = as_real(q_cap, "q_cap")
    if not (0.0 < q_cap < 1.0):
        raise ParameterError(f"q_cap must lie in (0, 1), got {q_cap}")
    best_margin = -math.inf
    best_candidate = None
    for K0 in defaults.L5_K0S:
        for beta in defaults.L5_BETAS:
            for alpha in defaults.L5_ALPHAS:
                scales = _lemma5_scales(alpha, beta, K0)
                big_k, _, big_t = scales[-1]
                allowance = 20 * (5 * big_t + 2 * big_k + 4) * 2.0**-52 / (1.0 - q_cap)
                entries = []
                margin = math.inf
                for K, band, t in scales:  # the margin only falls: stop once it is at the allowance
                    sums = band_sum_profile(q_cap, K, band, t, range(-band, band + 1))
                    for y, s in sums.items():
                        entries.append({"K": K, "band": band, "t": t, "y": y, "sum": s})
                        margin = min(margin, s - 1.0)
                    if margin <= allowance:
                        break
                else:
                    return {
                        "q_cap": q_cap,
                        "alpha": alpha,
                        "beta": beta,
                        "K0": K0,
                        "eps": 0.9 * margin,
                        "min_margin": margin,
                        "entries": entries,
                    }
                if margin > best_margin:
                    best_margin = margin
                    best_candidate = (alpha, beta, K0)
    raise CalibrationError(
        f"no candidate's margin cleared its rounding allowance; the largest margin a candidate "
        f"had when it stopped was {best_margin:.4g}, at (alpha, beta, K0) = {best_candidate}"
    )


# ---------------------------------------------------------------------------
# exit/containment calibration (free escape, lazy containment)


def level_hit_cdf(a: int, t: int) -> float:
    """P(simple walk from 0 reaches level a within t steps), by reflection.

    The tails come from the Boost ufuncs that scipy.stats.binom.sf and .pmf
    call: for these in-support k the wrappers change no value, so the result
    is bitwise theirs, without the 0.5 s and 45 MiB that importing
    scipy.stats costs a process.
    """
    from scipy.special._ufuncs import _binom_pmf, _binom_sf  # only the lemma-6 calls load scipy
    a, t = as_count(a, "level", 1), as_count(t, "t")
    if t < a:
        return 0.0
    m = t + a
    if m % 2 == 0:
        k = m // 2
        return float(2.0 * _binom_sf(k - 1, t, 0.5) - _binom_pmf(k, t, 0.5))
    return float(2.0 * _binom_sf(m // 2, t, 0.5))


def interior_survival(q_cap: float, K: int, s: int) -> float:
    """P(lazy-q walk from 0 stays strictly inside (-K, K) for s steps).

    Spectral sum over the Dirichlet modes of the path on 2K-1 interior
    sites: eigenvalues q + (1-q) cos(pi j / 2K), eigenvectors
    sin(pi j (x+K) / 2K), started from the delta at 0.
    """
    q_cap, K, s = _check_cap(q_cap), as_count(K, "K", 1), as_count(s, "s")
    if s == 0:
        return 1.0
    j = np.arange(1, 2 * K, dtype=np.float64)
    lam = q_cap + (1.0 - q_cap) * np.cos(np.pi * j / (2 * K))
    x = np.arange(-K + 1, K, dtype=np.float64)
    phi = np.sin(np.pi * j[:, None] * (x[None, :] + K) / (2 * K))
    phi0 = np.sin(np.pi * j * 0.5)  # eigenvector at the start site 0
    colsum = phi.sum(axis=1)
    with np.errstate(divide="ignore"):
        loglam = np.log(np.abs(lam))
    mag = np.where(np.abs(lam) > 0.0, np.exp(s * loglam), 0.0)
    sign = np.where(lam < 0.0, -1.0 if s % 2 else 1.0, 1.0)
    return float(np.sum(mag * sign * phi0 * colsum) / K)


def level_hit_cdf_absorbing(a: int, t: int) -> float:
    """Dual route for level_hit_cdf: evolve with every site >= a frozen.

    The walk cannot get below -t, so the live interval starts there.
    """
    a, t = as_count(a, "level", 1), as_count(t, "t")
    d = evolve(constant_policy(0.0, 0.0), t, live=(-t, a - 1))
    return float(interval_mass(d, a, a))


def interior_survival_absorbing(q_cap: float, K: int, s: int) -> float:
    """Dual route for interior_survival: freeze all mass at |x| >= K."""
    q_cap, K, s = _check_cap(q_cap), as_count(K, "K", 1), as_count(s, "s")
    d = evolve(constant_policy(q_cap, q_cap), s, live=(-K + 1, K - 1))
    return float(interval_mass(d, -K + 1, K - 1))


def escape_probability(A: int, K: int) -> float:
    """P(free walk has NOT reached level 2K within A*K^2 steps)."""
    A, K = as_count(A, "A", 1), as_count(K, "K", 1)
    return 1.0 - level_hit_cdf(2 * K, A * K * K)


def early_exit_probability(q_cap: float, A: int, K: int) -> float:
    """P(lazy-q walk from 0 hits -K or +K strictly before A*K^2 steps)."""
    A, K = as_count(A, "A", 1), as_count(K, "K", 1)
    return 1.0 - interior_survival(q_cap, K, A * K * K - 1)


def _first_below(half_eps: float, stage: str, candidates, prob):
    """First candidate c with prob(c, K) < half_eps at every K, as (c, {K: value})."""
    for c in candidates:
        vals = {K: prob(c, K) for K in defaults.L6_KS}
        if max(vals.values()) < half_eps:
            return c, vals
    raise CalibrationError(f"{stage}{c} still fails eps/2={half_eps:g}")


def calibrate_lemma6(eps: float) -> dict:
    """Find (A, q) with free escape and lazy early-exit both below eps/2.

    A doubles from 1 until the no-return probability P(level 2K unreached by
    A*K^2) clears eps/2 at every K; then q walks the dyadic grid 1 - 2^-j
    until the early-exit probability P(hit +-K before A*K^2) clears eps/2 at
    every K. Both stages use exact closed forms of the respective walks.
    """
    eps = as_real(eps, "eps")
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    half = eps / 2.0
    doublings = [1 << d for d in range(defaults.L6_MAX_A_DOUBLINGS + 1)]
    A, escape_vals = _first_below(half, "escape stage exhausted: A=", doublings, escape_probability)
    q_level, exit_vals = _first_below(
        half, f"containment stage exhausted for A={A}: q level ",
        range(1, defaults.L6_MAX_Q_LEVELS + 1),
        lambda j, K: early_exit_probability(1.0 - 2.0**-j, A, K),
    )
    return {
        "eps": eps,
        "Ks": list(defaults.L6_KS),
        "A": A,
        "q": 1.0 - 2.0**-q_level,
        "q_level": q_level,
        "escape_by_K": {str(K): v for K, v in escape_vals.items()},
        "early_exit_by_K": {str(K): v for K, v in exit_vals.items()},
    }


# ---------------------------------------------------------------------------
# certificates: regenerated from their one input, compared, cross-checked and judged


CROSS_CHECK_TOL = 1e-12  # the most two routes to one number may differ by


def _regenerated(cert, key: str, calibrate) -> dict:
    """What calibrate writes for the certificate's one input, cert[key]."""
    if not isinstance(cert, dict):
        raise ParameterError(f"certificate must be a JSON object, got {type(cert).__name__}")
    if key not in cert:
        raise ParameterError(f"certificate lacks {key}")
    try:
        return calibrate(cert[key])
    except CalibrationError as exc:  # no certificate exists for this input
        raise ParameterError(f"no certificate exists for {key}={cert[key]!r}: {exc}") from None


def _brief(value) -> str:  # a table by its kind and length only
    if isinstance(value, (dict, list)):
        return "an object" if isinstance(value, dict) else f"a list of {len(value)}"
    return repr(value)


def _diff(got, want, path: str, writer: str, results, result: bool = False) -> float:
    """max |got - want| over the result numbers, the values under a key in results:
    each must be a finite non-bool number. Everything else must equal what writer
    wrote, with the same type, or ParameterError names the first difference."""
    container = isinstance(want, (dict, list))
    if result and not container:
        if isinstance(got, numbers.Real) and not isinstance(got, bool) and math.isfinite(got):
            return abs(float(got) - want)
        raise ParameterError(f"{path} must be a finite number, got {got!r}")
    if type(got) is not type(want) or (not container and got != want):
        raise ParameterError(f"{path} is {_brief(got)}; {writer} writes {_brief(want)}")
    if isinstance(want, dict):
        missing, extra = [k for k in want if k not in got], [k for k in got if k not in want]
        if missing:
            raise ParameterError(f"{path} lacks {', '.join(missing)}")
        if extra:
            raise ParameterError(f"{path} holds {extra[0]!r}, which {writer} does not write")
        items = [(f"{path}.{k}", got[k], w, result or k in results) for k, w in want.items()]
    elif container:
        if len(got) != len(want):
            raise ParameterError(f"{path} holds {len(got)} items; {writer} writes {len(want)}")
        items = [(f"{path}[{i}]", g, w, result) for i, (g, w) in enumerate(zip(got, want))]
    else:
        return 0.0
    return max((_diff(g, w, p, writer, results, r) for p, g, w, r in items), default=0.0)


def verify_lemma5_certificate(cert) -> dict:
    """Check a calibrate_lemma5 certificate by regenerating it from its q_cap.

    All but eps, min_margin and each entry's sum, which feed max_diff, must be
    what calibrate_lemma5 writes, else ParameterError. pass needs max_diff ==
    0.0, every stored sum above 1 + eps (all_exceed), and the stored K0 sums
    within CROSS_CHECK_TOL of a direct summation (direct_sum_max_diff).
    """
    fresh = _regenerated(cert, "q_cap", calibrate_lemma5)
    max_diff = _diff(cert, fresh, "certificate", "calibrate_lemma5", {"eps", "min_margin", "sum"})
    all_exceed = all(e["sum"] > 1.0 + cert["eps"] for e in cert["entries"])
    K, band, t = _lemma5_scales(fresh["alpha"], fresh["beta"], fresh["K0"])[0]
    stored = {e["y"]: e["sum"] for e in cert["entries"] if e["K"] == K}
    direct = band_sum_direct(fresh["q_cap"], K, band, t, stored)
    cross = max(abs(direct[y] - s) for y, s in stored.items())
    return {
        "max_diff": max_diff,
        "all_exceed": all_exceed,
        "entries": len(fresh["entries"]),
        "direct_sum_max_diff": cross,
        "pass": max_diff == 0.0 and all_exceed and cross <= CROSS_CHECK_TOL,
    }


def verify_lemma6_certificate(cert) -> dict:
    """Check a calibrate_lemma6 certificate by regenerating it from its eps.

    All but the values of escape_by_K and early_exit_by_K, which feed max_diff,
    must be what calibrate_lemma6 writes, else ParameterError. pass needs
    max_diff == 0.0, every stored value below eps/2 (all_below), and both
    closed forms within CROSS_CHECK_TOL of absorbing evolution at K = 8, t = 4K^2.
    """
    fresh = _regenerated(cert, "eps", calibrate_lemma6)
    tables = ("escape_by_K", "early_exit_by_K")
    max_diff = _diff(cert, fresh, "certificate", "calibrate_lemma6", tables)
    all_below = all(v < cert["eps"] / 2.0 for key in tables for v in cert[key].values())
    K, t, q = 8, 256, fresh["q"]
    escape = abs(level_hit_cdf(2 * K, t) - level_hit_cdf_absorbing(2 * K, t))
    exit_ = abs(interior_survival(q, K, t) - interior_survival_absorbing(q, K, t))
    return {
        "max_diff": max_diff,
        "all_below": all_below,
        "absorbing_cross_check_escape": escape,
        "absorbing_cross_check_exit": exit_,
        "pass": max_diff == 0.0 and all_below and all(
            d <= CROSS_CHECK_TOL for d in (escape, exit_)),
    }
