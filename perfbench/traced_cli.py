"""Run `polar-olct` with layer tracing installed and write its spans.

    python3 perfbench/traced_cli.py SPANS.json verify --seed 7 ...

Exits with the CLI's own exit code; the spans go to SPANS.json.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from polar_olct import cli  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer().install()
    try:
        code = cli.main(argv)
    finally:
        t.uninstall()
        t.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
