"""Calibration constants measured once and committed.

Every number here came from a first run of the corresponding computation on
the reference machine; regression tests compare fresh runs against these
values instead of re-deriving them.  All the computations are deterministic
(seeded generators, fixed reduction orders), so drift indicates a real
behavior change, not noise.
"""

# best expansion exponent for the 256-cell digit-Cantor set (base 4,
# digits {0,3}) at n=16, candidate sweep over [1,2] at resolution 2^-8
EXPANDER_CANTOR_N16_EXPONENT = 0.598913

# same sweep for the arithmetic progression {0..255}: the doubling ratio
# tops out at 3, so the exponent is log(3)/log(2^16); acceptance criterion 7
# asserts this value to within 1e-6
EXPANDER_AP256_N16_EXPONENT = 0.099060

# fraction of 360 quantile angles whose adversarial projection count
# exceeds sqrt(|E|) for the squared base-3 Cantor set at n=12, eps=0.05
PROJECTION_SQUARE_FRACTION = 1.0

# median projection measure over 360 angles, squared Cantor sets at n=12;
# the base-4 set sits at the dimension-1 boundary, the base-3 square is
# supercritical and stays bounded away from zero
MARSTRAND_MEDIAN_N12_BOUNDARY = 0.7540
MARSTRAND_MEDIAN_N12_SUPER = 1.3069
# the same construction at n=10 (4096 cells); asserted next to the n=12
# square, whose 1-energy the separable product path computes in under a
# second
MARSTRAND_MEDIAN_N10_SUPER = 1.3076

# directional energy average for uniform measure on the squared base-3
# Cantor set at n=10 against the uniform angle measure, kappa=0.4
KAUFMAN_DIAG_AVERAGE = 1.9878

# adversarial projection of the squared base-3 Cantor set at n=10 along
# the diagonal (theta=pi/4, fraction 0.9): the diagonal overlaps fibers,
# so the adversary needs only ~2/3 of the nonempty fibers
ADVERSARIAL_DIAG_COUNT = 953
ADVERSARIAL_DIAG_FIBERS = 1448

# worst output-side doubling constant over 20 seeded half-density random
# graphs on the 256-cell progression
BSG_AP_WORST_KOUT = 3.5146
