"""Set-up time in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
    python3 perfbench/setup_probe.py reference

The first form times importing qea (and qea.cli for the cli workload) and
building the first round's inputs through the program.  The second times
a reference set-up that runs no qea code: importing a fixed list of
standard-library modules.  `run.py` alternates the two and reports set-up
time in units of the reference (README.md).  Each prints one JSON object.
The clock starts before anything but `sys` and `time` is imported.
"""

import sys
import time

t0 = time.perf_counter()

import os  # noqa: E402  (imported at interpreter start anyway)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

# Pure-Python standard-library modules whose import, like qea's, is mostly
# unmarshalling code and running module bodies (classes, dataclasses,
# enums, regexes).
REFERENCE_MODULES = [
    "argparse", "logging", "email.message", "http.client", "xml.etree.ElementTree", "unittest",
    "dataclasses", "json", "csv", "hashlib", "inspect", "typing", "fractions", "statistics",
    "decimal", "tomllib", "pathlib", "string", "textwrap",
]


def reference() -> None:
    import importlib

    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    print(f'{{"setup_s": {time.perf_counter() - t0!r}}}')


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = time.perf_counter()
    import qea  # noqa: F401

    import_qea = time.perf_counter() - start
    import_cli = None
    if workload == "cli":
        start = time.perf_counter()
        import qea.cli  # noqa: F401

        import_cli = time.perf_counter() - start
    import workloads

    if workload == "cli":
        wl = workloads.Cli(seed, workdir)
        wl.write_files()
    else:
        wl = workloads.WORKLOADS[workload](seed)
    wl.inputs(0)
    setup = time.perf_counter() - t0
    if import_cli is None:  # measured, but not part of this workload's set-up
        start = time.perf_counter()
        import qea.cli  # noqa: F401,F811

        import_cli = time.perf_counter() - start
    print(f'{{"setup_s": {setup!r}, "import_qea_s": {import_qea!r}, "import_qea_cli_s": {import_cli!r}}}')


if sys.argv[1:] == ["reference"]:
    reference()
else:
    main()
