"""Rule modules; importing this package populates the engine registry."""

from . import consistency  # noqa: F401
from . import determinism  # noqa: F401
from . import stats_discipline  # noqa: F401
