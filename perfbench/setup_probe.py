"""One cold set-up sample: import ncsred and load the given scenario files.

run.py starts this in a fresh interpreter for every sample, because only
the first import in a process pays the import cost:

    python3 perfbench/setup_probe.py FILE [FILE ...]

Prints the elapsed seconds.
"""
import os
import sys
from time import perf_counter


def main(paths):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = perf_counter()
    from ncsred import scenario_io
    for path in paths:
        scenario_io.load_scenario(path)
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
