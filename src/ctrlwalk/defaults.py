"""Recorded default parameters for schedules, fits, sampling and calibration searches.

The localization/return constructions only assert that suitable constants
exist; these are the concrete witnesses this package ships with. Sweep
params and fit cutoffs can also be set per call.
"""

# Monte Carlo trials per estimate
MC_TRIALS = 10000

# exponent fits drop pre-asymptotic points below this n
MIN_FIT_N = 128

# multiscale localization schedule (coarse-to-fine squeezing)
LOC_ALPHA = 0.5
LOC_BETA = 0.25
LOC_K0 = 4

# multiscale return schedule for very lazy caps
QTO1_A = 4

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
