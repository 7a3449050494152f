"""Run ``cli serve`` with layer spans recorded, for the traced run.

Usage: ``python3 perfbench/serve.py --spans-out FILE <cli serve args>``.
Installs the span wrappers before the server builds its worker pool
(the workers fork from it and inherit them), serves until SIGTERM
drains it, then writes every span as a JSON list to ``FILE``.
"""

import json
import sys

import spans


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print("usage: serve.py --spans-out FILE [cli serve args]",
              file=sys.stderr)
        return 2
    out, rest = argv[1], argv[2:]
    rec = spans.Recorder()
    spans.install(rec)
    from repro.harness.cli import main as cli_main
    try:
        return cli_main(["serve"] + rest)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump([list(span) for span in rec.spans], fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
