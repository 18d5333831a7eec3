"""Hypothesis profiles.  Hypothesis loads its built-in `ci` profile (derandomized, no deadline, a failing property
prints the `@reproduce_failure` blob that replays it) wherever the `CI` variable is set, which GitHub Actions does on
every leg; this extends it to four times the default number of examples."""

from hypothesis import settings

settings.register_profile("ci", settings.get_profile("ci"), max_examples=4 * settings.default.max_examples)
