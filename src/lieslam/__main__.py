"""Process entry point of ``lieslam`` and ``python -m lieslam``.

A run builds no reference cycles, so the cyclic collector only costs
time here: passes during the imports and the run, and full collections
at interpreter shutdown.  ``entry`` turns it off before the first import
and freezes the heap before exit, which leaves shutdown's collections
nothing to traverse.  In-process callers of ``cli.main`` keep theirs.
"""

import gc
import sys


def entry() -> None:
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
