"""Process entry: ``python -m qjulia`` and the ``qjulia`` console script.

The entry owns the interpreter, so it owns the cyclic garbage
collector.  The collector stays off while the CLI and numpy import,
then ``gc.freeze()`` moves the long-lived import-time heap into the
permanent generation (the recipe in the ``gc.freeze`` documentation for
processes that fork).  The collector then never walks those objects
again, neither in later collections nor at exit, and forked scan
workers share their pages without copying them.  ``cli.main``, which
library callers and tests run in their own process, leaves ``gc`` alone.
"""

import gc
import sys

gc.disable()
from qjulia.cli import main  # noqa: E402  (imported with the collector off)

gc.freeze()
gc.enable()

if __name__ == "__main__":
    sys.exit(main())
