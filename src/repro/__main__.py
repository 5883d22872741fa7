"""Entry point for ``python -m repro`` (the campaign CLI)."""

import gc
import sys

from repro.campaigns.cli import main

if __name__ == "__main__":
    # Move the imported modules to the collector's permanent generation, so
    # no collection of the run re-scans them, and once more after the run,
    # so the interpreter's final collection skips the whole heap.
    gc.freeze()
    status = main()
    gc.freeze()
    sys.exit(status)
