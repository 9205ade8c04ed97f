"""Settings shared by every test module."""

from hypothesis import settings

# Timings on a loaded machine vary too much for per-example deadlines;
# each test sets its own max_examples.
settings.register_profile("fairctl", deadline=None)
settings.load_profile("fairctl")
