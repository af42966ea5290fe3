"""Print the numerical environment as one JSON line.

    python3 perfbench/probe.py [--eig N]

With --eig N it also times two dense eigensolves of one random complex
N x N matrix in this fresh process: the first pays the one-time cost of
the first multi-threaded LAPACK call, the second runs warm.
"""

import json
import platform
import sys
import time

import numpy as np
import scipy


def main(argv):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    if argv[:1] == ["--eig"]:
        n = int(argv[1])
        rng = np.random.default_rng(0)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for key in ("cold_eig_s", "warm_eig_s"):
            t0 = time.perf_counter()
            np.linalg.eig(a)
            info[key] = time.perf_counter() - t0
    print(json.dumps(info))


if __name__ == "__main__":
    main(sys.argv[1:])
