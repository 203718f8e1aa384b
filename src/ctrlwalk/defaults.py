"""Recorded default parameters for fits, sampling and calibration searches.

The localization/return constructions only assert that suitable constants
exist; these are the concrete witnesses this package ships with. The
schedule constants a sweep policy falls back on (LOC_ALPHA, LOC_BETA, LOC_K0,
QTO1_A) live in ctrlwalk.policies beside sweep_policy, which reads them, so
the policy layer imports only the standard library and ctrlwalk.errors.
Sweep params and fit cutoffs can also be set per call.
"""

# Monte Carlo trials per estimate
MC_TRIALS = 10000

# exponent fits drop pre-asymptotic points below this n
MIN_FIT_N = 128

# band-sum calibration: candidate grids, tried in order
L5_ALPHAS = (0.25, 0.5, 1.0)
L5_BETAS = (0.25, 0.5)
L5_K0S = (4, 6, 8)

# exit/containment calibration
L6_KS = (16, 64, 256)
L6_MAX_A_DOUBLINGS = 12
L6_MAX_Q_LEVELS = 24

# heat-kernel probe starts, as multiples of the band halfwidth
HK_PROBE_FACTORS = (0, 1, 2)
