"""The ``specrcv`` entry point: ``python -m specrcv`` and the console script
both call ``run()``.

``run()`` returns ``cli.main()``'s exit code and then freezes the heap with
``gc.freeze()``, so the collections during interpreter shutdown skip every
object still alive (NumPy, argparse and the loaded modules), which would
otherwise cost a short command several milliseconds. ``cli.main`` itself
never freezes, since tests and the benchmark's traced runs call it in
process.
"""
import gc
import sys

from .cli import main


def run() -> int:
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
