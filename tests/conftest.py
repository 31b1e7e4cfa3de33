"""Test-session settings shared by every test module.

Hypothesis draws a fixed set of examples per test, so the suite's
pass/fail count depends only on the code under test.  A randomized run
stays one flag away: `pytest --hypothesis-profile=default`.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
