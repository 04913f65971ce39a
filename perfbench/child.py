"""Run one gl2zeta CLI command with the benchmark's tracing wrappers installed.

    python3 perfbench/child.py SPAWN_EPOCH -- <gl2zeta arguments...>

Used by traced runs only.  SPAWN_EPOCH is the parent's ``time.time()`` just
before it started this process, so ``cli.process_s`` (interpreter start plus
``import gl2zeta.cli``) can be measured.  The command's stdout and exit code
are those of ``gl2zeta.cli.main``; after it returns, the per-layer summary is
written to stderr as one JSON line starting with ``MARKER``.
"""

import sys
import time
from pathlib import Path

MARKER = "@@perfbench-layers "


def main() -> int:
    spawn = float(sys.argv[1])
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import gl2zeta.cli

    process_s = time.time() - spawn
    import json

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.query = 0
    rc = gl2zeta.cli.main(argv)
    sys.stdout.flush()
    layers = tracing.layer_metrics(tracer)
    layers["cli.process_s"] = process_s
    sys.stderr.write("\n" + MARKER + json.dumps({"layers": layers, "missing_targets": tracer.missing}) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
