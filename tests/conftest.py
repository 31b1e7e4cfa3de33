"""Test-session settings shared by every test module.

Hypothesis draws from a fixed seed per test, so a rerun of the same suite
draws the same examples.  The draws do not depend on the test alone:
Hypothesis 6.155 also mixes constants from every local module in
`sys.modules` into them (`providers._get_local_constants`), and no public
setting turns that off.  A test module that imports one more local module
can so change what an unrelated property test draws.  A randomized run
stays one flag away: `pytest --hypothesis-profile=default`.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
