"""Default simulation window and seed.

Kept apart from :mod:`repro.core.simulation` so argument parsers and
cache lookups can read them without importing the simulator.
"""

from __future__ import annotations

import os

#: Default measured window (instructions) and warmup; the paper used
#: 100 M + 1 M on native hardware -- these defaults keep a pure-Python
#: run tractable and are overridable via the environment.
DEFAULT_INSTRUCTIONS = int(os.environ.get("REPRO_INSTRUCTIONS", "12000"))
DEFAULT_WARMUP = int(os.environ.get("REPRO_WARMUP", "3000"))
DEFAULT_SEED = 42
