"""Array conventions shared by every module: all arrays are float64.

Parallelism is left to the BLAS that NumPy links against.
"""

import numpy as np

DTYPE = np.float64
