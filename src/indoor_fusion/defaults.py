"""The option defaults that the CLI shares with the stages using them.

They live apart from ``ingest`` and ``fingerprint``, so that reading them
loads neither of those modules nor numpy.
"""

DEFAULT_WINDOW_S = 0.15  # causal staleness window of a fusion frame (s)
DEFAULT_RESOLUTION = 0.25  # fingerprint cell size (m)
DEFAULT_K = 3  # fingerprint neighbours per query
