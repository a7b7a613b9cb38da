"""Entry point of ``python -m lossyphase`` and of the ``lossyphase`` console script."""

import os
import sys

# OpenBLAS takes its thread count from the first of these that is set
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv=None) -> int:
    """Run the command line with one BLAS thread, unless the caller chose a count.

    No command makes a BLAS call large enough to use a second thread, yet
    OpenBLAS starts one when numpy is imported and it busy-waits about 0.1
    CPU-s before it sleeps. The count is read when numpy loads, so it is set
    here, before any command can import numpy (only ``validate`` does).
    Importing the package or ``lossyphase.cli`` as a library leaves the
    environment alone.
    """
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
