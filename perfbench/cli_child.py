"""Traced stand-in for ``python -m nodalstab.cli`` in the cli-process workload.

    python cli_child.py SPANS_FILE <nodal-stab arguments...>

Times the import of ``nodalstab.cli``, installs the benchmark's span
wrappers, calls ``nodalstab.cli.run(argv)`` and writes the spans to
SPANS_FILE, also when the run raises.  Exits with run's exit code, or
with the traceback and code 1 of an uncaught exception, as the real
entry point would.

Only ``time`` and ``sys`` (both built in) are imported before
``nodalstab.cli``, so ``cli.import`` pays for every module the real entry
point imports; the benchmark's own modules are imported after it.
"""

from time import perf_counter

STARTED = perf_counter()

import sys  # noqa: E402

IMPORT_T0 = perf_counter()
import nodalstab.cli as cli  # noqa: E402
IMPORT_T1 = perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, install  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    tr.begin(0, name="cli.child", start=STARTED)
    tr.add("cli.import", IMPORT_T0, IMPORT_T1, tr.stack[0])
    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"nodalstab imported from {cli.__file__}, not from {src}\n")
        return 97
    install(tr)
    try:
        return cli.run(argv)
    finally:
        sys.stdout.flush()
        tr.finish()
        with open(spans_path, "w") as fh:
            json.dump(tr.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
