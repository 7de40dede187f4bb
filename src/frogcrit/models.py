"""The coupled spreading models that `critical.bound_table` tabulates.

The enum lives apart from the solver so that the CLI can offer the
`--model` choices without loading it.
"""

from enum import Enum


class Model(Enum):
    CONE_PERCOLATION = "cone"
    ORIGINAL_FROG = "original"
    SELF_AVOIDING_FROG = "selfavoiding"
    REMOVAL = "removal"
