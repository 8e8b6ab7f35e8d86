"""One hypothesis profile for the whole suite: the same examples on every run, no example database."""

from hypothesis import settings

settings.register_profile("maskmodes", derandomize=True, deadline=None, database=None)
settings.load_profile("maskmodes")
