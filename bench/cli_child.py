"""Run one ``ainfty`` command with layer tracing, for the traced cli run.

    python bench/cli_child.py SPANS_OUT <ainfty arguments...>

Imports the CLI cold, as ``python -m ainfty.cli`` does, wraps the library
calls (see ``layers.py``), runs the command and writes the spans to
SPANS_OUT as JSON.  The exit code is the command's.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import ainfty.cli
    rec = layers.Recorder()
    rec.install()
    try:
        return ainfty.cli.main(argv)
    finally:
        rec.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(rec.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main())
