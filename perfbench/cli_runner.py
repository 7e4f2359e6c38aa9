"""`python -m graverkit.cli` with the benchmark's spans installed.

    PERFBENCH_SPANS=FILE python3 perfbench/cli_runner.py <graverkit cli arguments>

Used for every CLI command of a traced cli run. It times the import of
`graverkit.cli`, installs the wrappers, calls `graverkit.cli.main`, and writes
the span summary to FILE. Standard output and the exit code are the CLI's own.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    import graverkit.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return graverkit.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["import_s"] = import_s
        Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(summary))


if __name__ == "__main__":
    sys.exit(main())
