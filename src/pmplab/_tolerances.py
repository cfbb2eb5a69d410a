"""Every numerical tolerance and solver limit of the package.

Each name states the decision its value makes, not the value: two
constants that share a value but decide different things stay apart, and
a decision the package makes in several places is written once here.
Results depend on these values bit for bit, so a change to any of them
moves result bits.
"""

# -- congestion ---------------------------------------------------------------

# finite stand-in for a diverged latency level inside solvers (never exposed)
DIVERGED_LEVEL = 1e12
# most bisection steps that invert a congestion level to a usage: the loss
# kind's inverse and a tie group's pooled level.  Each stops early once its
# midpoint equals an end of the bracket, with the same result: every later
# step could only collapse the bracket onto that midpoint.
LEVEL_INVERSION_STEPS = 80
# a tie group's level bracket starts at max(2 floor, this) and gives up,
# returning its current top, once it passes the cap
LEVEL_BRACKET_START = 1e-6
LEVEL_BRACKET_CAP = 1e14
# classify_scaling: a scale-down gap beyond this counts as a strict change;
# also the scenario file's ``tol`` default
SCALING_GAP_TOL = 1e-9
# classify_scaling: every gap within this of zero makes the model Indifferent
SCALING_INDIFFERENT_TOL = 1e-12
# monotone_case: usages, or marginal slopes, this close are tied
MONOTONE_TIE = 1e-12
# c2_profile_filter: a level may fall this much and still count as nondecreasing
PROFILE_LEVEL_TIE = 1e-12

# -- type distributions -------------------------------------------------------

# a table's last breakpoint must sit this close to the support end
TABLE_END_TOL = 1e-15
# a CDF value this far above 1 still counts as 1 (a table's last F, and the
# argument of a quantile)
CDF_ROUNDOFF = 1e-12

# -- equilibrium: checks on prices, cutoffs and residuals -----------------------

# accepted residual on the indifference equations and the level ordering,
# in price units: validate() and the forward map's ordering checks
PRICE_TOL = 1e-9
# largest indifference residual a solve may return
SOLVED_RESIDUAL_TOL = 100 * PRICE_TOL
# cutoff gaps and usages this small are ties or empty classes
TIE_TOL = 1e-12
# a posted price may exceed the access value V by this much
ACCESS_VALUE_SLACK = 1e-12
# nonincreasing cutoffs and prices, and nonnegative cutoffs, may miss their
# order by this roundoff
ORDER_ROUNDOFF = 1e-15
# a top cutoff may pass the support end by this much
SUPPORT_END_SLACK = 1e-12
# a top cutoff this close to the support end saturates the market
SATURATION_SLACK = 1e-14
# a class serving no more than this mass takes its empty-class level
EMPTY_CLASS_MASS = 1e-15
# a dropped class stays empty unless its entrant beats the envelope by more
DEVIATION_SLACK = 1e-7

# -- equilibrium: damped Newton on the cutoff chain ----------------------------

NEWTON_CONVERGED = 1e-12   # largest |residual| that ends the iteration
NEWTON_COLLAPSE = 1e-10    # interval width at which a solved group counts as empty
NEWTON_ITERATIONS = 32     # steps per attempt
NEWTON_HALVINGS = 12       # step halvings before an attempt gives up
SLOPE_FLOOR = 1e-13        # Jacobian slopes taken at least this far above min usage
SINGULAR_PIVOT = 1e-300    # a pivot no larger than this makes the Newton system singular
NEWTON_MIN_USAGE_SLACK = 1e-12  # solved usages may fall this far below the minimum usage
SEED_USAGE_PAD = 1e-4      # capacity seed: each class gets at least 1.2 min usage plus this
SEED_CUTOFF_GAP = 1e-6     # capacity seed: gap added above a seed cutoff that ties the next

# -- equilibrium: nested bisection ---------------------------------------------

THETA_TOL = 1e-12          # bisection resolution on cutoffs
BOUNDARY_BISECT_STEPS = 24  # bisection steps that isolate a boundary before _brent
INNER_EXTRA_STEPS = 56     # further steps on an inner boundary _brent cannot take
TOP_EXTRA_STEPS = 76       # further steps on the top cutoff _brent cannot take
# equilibrium._brent on a bracket the bisection has isolated
BRENT_XTOL = 1e-13
BRENT_RTOL = 8.9e-16
BRENT_MAXITER = 120
# top-cutoff residual the bisection accepts, relative to max(1, V)
CHAIN_RESIDUAL_TOL = 1e-6

# -- deterministic maximization ------------------------------------------------

# objective values this close tie, and the larger price wins
PLATEAU_TOL = 1e-12
# resolution of every price search
PRICE_XTOL = 1e-7
# a price search split at price-ordering case boundaries scans each segment
# on at least this many grid intervals
SEGMENT_GRID_FLOOR = 32

# -- monopoly studies ----------------------------------------------------------

# maximize_free_prices: grid intervals and resolution of the identical-price
# seed search
SEED_PRICE_GRID = 256
SEED_PRICE_XTOL = 1e-8
# maximize_free_prices: grid intervals of each cutoff move
CUTOFF_GRID = 32
# maximize_free_prices: resolution of each cutoff move
CUTOFF_XTOL = 1e-9
# maximize_free_prices: ascent rounds per start
FREE_PRICE_ROUNDS = 40
# maximize_free_prices: gap kept between neighbouring cutoffs and above 0
CUTOFF_GAP = 1e-12
# maximize_free_prices: cutoffs whose bottom price falls below -this are rejected
BOTTOM_PRICE_SLACK = 1e-12
# maximize_free_prices: a cutoff move must gain more than this
CUTOFF_ASCENT_GAIN = 1e-13
# partition_comparison: a split must sum to the capacity within this
SPLIT_SUM_TOL = 1e-9
# a class with more usage than this is nonempty (probe, viability report, CLI)
NONEMPTY_USAGE = 1e-9
# local_improvement_probe: each cutoff, and their gap, must exceed this
PROBE_CUTOFF_GAP = 1e-9
# local_improvement_probe: default perturbation; also the scenario file's
# ``delta`` default
PROBE_DELTA = 1e-3
# local_improvement_probe: halving stops below 1e-6, less a roundoff allowance
PROBE_DELTA_FLOOR = 1e-6 - 1e-15
# viability_report: a sweep beats the merged class by more than this
BASELINE_BEAT_MARGIN = 1e-6
# viability_report: prices per split, and grid intervals of each ratio sweep
VIABILITY_PRICES = 16
VIABILITY_SWEEP_GRID = 192

# -- duopoly studies -----------------------------------------------------------

# a strategy's prices may rise by this much and still count as nonincreasing
STRATEGY_ORDER_SLACK = 1e-12
# profit_derivative_I: difference step, relative to V
DERIVATIVE_STEP = 1e-5
# profit_derivative_I: relative gaps are taken against at least this scale
REL_GAP_FLOOR = 1e-12
# profit_derivative_I: a closed form within this relative gap agrees
CLOSED_FORM_AGREEMENT = 1e-3
# best_response_II: a coordinate move must gain more than this
ASCENT_GAIN = 1e-12
# best_response_II: grid intervals of each price line of the ascent
ASCENT_PRICE_GRID = 24
# best_response_I: grid intervals of the price search over [0, V]
BEST_RESPONSE_I_GRID = 256
# best_response_II: grid points and resolution of the capacity-split search,
# and the most coordinate-ascent cycles per seed
SPLIT_GRID = 33
SPLIT_XTOL = 1e-6
ASCENT_CYCLES = 3
# find_nash: converged once no strategy coordinate moves this far in a round,
# and gives up after this many rounds
NASH_MOVE_TOL = 1e-6
NASH_MAX_ROUNDS = 100
# find_nash verification: neighbourhood radius, the profit gain that counts
# as an improvement, and the least share each split part keeps
NASH_VERIFY_RADIUS = 1e-3
NASH_VERIFY_SLACK = 1e-8
NASH_SPLIT_MARGIN = 1e-6
# CLI duopoly summary: the split dominates when it is within this of one class
SPLIT_DOMINANCE_SLACK = 1e-9
