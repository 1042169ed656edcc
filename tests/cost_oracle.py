"""The parameter count of a built network, the runtime side of the
analytic counts in `densepillars.cost`."""

import numpy as np


def runtime_param_count(named_params: dict) -> int:
    """Trainable values actually allocated by an executing network."""
    return int(sum(np.prod(t.shape, dtype=np.int64) for t in named_params.values()))
