import platform

import numpy as np
import scipy

from equilab import densela


def pytest_report_header(config):
    return (f"equilab kernel backend: {densela.KERNEL_BACKEND}; "
            f"python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}")
