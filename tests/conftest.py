"""One hypothesis profile for every test run.

Each property test draws the same examples on every run (``derandomize``),
keeps no example database between runs and has no deadline, so a failure
reproduces and a slow or loaded machine cannot fail a test by time alone.
A test sets only how many examples it draws.
"""

from hypothesis import settings

settings.register_profile("pairabs", derandomize=True, database=None, deadline=None)
settings.load_profile("pairabs")
