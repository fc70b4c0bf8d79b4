"""Convert benchmark fixtures into policy checkpoints the CLI reads.

    python3 tools/fixture_to_checkpoint.py flat hurdle_target --out DIR

Each name is a fixture under `bench/fixtures/` (`<name>.npz`), read by the
benchmark's own `load_fixture`. It becomes `DIR/<name>.ckpt`, an RBPC
checkpoint of the same numbers with an empty config hash (see
`gaitbridge.harness.checkpoint`), so that
`gaitbridge evaluate --default DIR/flat.ckpt ...` runs the frozen policies
the benchmark runs. The fixtures are only read.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import load_fixture  # noqa: E402
from gaitbridge.harness import Checkpoint, save_checkpoint  # noqa: E402


def convert(name, out_dir):
    """Write the checkpoint of fixture `name` into `out_dir`; returns its
    path."""
    return save_checkpoint(Path(out_dir) / f"{name}.ckpt",
                           Checkpoint.of(*load_fixture(name)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+",
                        help="fixture names, as in bench/fixtures/<name>.npz")
    parser.add_argument("--out", required=True,
                        help="directory the checkpoints are written to")
    args = parser.parse_args(argv)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    for name in args.names:
        print(convert(name, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
