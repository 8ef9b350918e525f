"""Default limits, apart from the modules that use them, so that the
command line's help can print them without loading those modules."""

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_PATHS = 10_000
DEFAULT_MIN_PROB = 1e-15
DEFAULT_STATE_CAP = 1_000_000
