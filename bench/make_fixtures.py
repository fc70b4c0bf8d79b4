"""Train and freeze the policies the benchmark workloads start from.

    python3 bench/make_fixtures.py [--out bench/fixtures]

Trains, with the library's own training code and seeds drawn from ``SEED``:

- the terrain-blind walker on flat ground (``flat.npz``);
- the gap and hurdle specialists (``gap_target.npz``, ``hurdle_target.npz``);
- a setup policy for each of them, started from the walker
  (``gap_setup.npz``, ``hurdle_setup.npz``).

Each file holds plain numpy arrays: ``param.<name>`` for every network
parameter and ``norm.<name>`` for every normalizer statistic, so the
workloads rebuild the policies through ``ParameterizedNet.from_params`` and
``RunningNormalizer.from_state_arrays`` and stay independent of later
changes to the training arithmetic or the checkpoint format.
``manifest.json`` records the ticks each policy trained for and the success
it reached.

The block specialist is left out: it stayed at or below 0.22 success after
3M ticks, so no course in the benchmark uses it.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gaitbridge.composer import (  # noqa: E402
    FLAT,
    BehaviorModule,
    train_setup,
    train_target,
)
from gaitbridge.policyopt import PPOConfig  # noqa: E402
from gaitbridge.terrainsim import (  # noqa: E402
    GAP,
    HURDLE,
    TerrainEnv,
    single_artifact_course,
)

TARGET_BUDGET = {FLAT: 400_000, GAP: 2_000_000, HURDLE: 2_000_000}
TARGET_EVAL_EVERY = {FLAT: 2, GAP: 10, HURDLE: 10}
SETUP_BUDGET = 400_000
EVAL_EPISODES = 100
SEED = 0


def save_policy(path, net, norm):
    arrays = {f"param.{k}": v for k, v in net.params.items()}
    arrays.update({f"norm.{k}": v for k, v in norm.state_arrays().items()})
    np.savez(path, **arrays)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).parent / "fixtures"))
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": SEED, "eval_episodes": EVAL_EPISODES,
                "policies": {}}

    def record(name, ticks, success, seconds):
        manifest["policies"][name] = {"ticks": ticks, "success": success,
                                      "train_seconds": round(seconds, 1)}
        print(f"{name}: success {success:.2f} after {ticks} ticks "
              f"({seconds:.0f} s)", flush=True)

    targets = {}
    for index, kind in enumerate((FLAT, GAP, HURDLE)):
        start = time.perf_counter()
        net, norm, curve = train_target(
            kind, TARGET_BUDGET[kind], np.random.default_rng((SEED, index)),
            eval_every=TARGET_EVAL_EVERY[kind], eval_episodes=EVAL_EPISODES,
            seed_tag=SEED)
        ticks, _, success = curve[-1]
        targets[kind] = (net, norm)
        name = "flat" if kind == FLAT else f"{kind}_target"
        save_policy(out / f"{name}.npz", net, norm)
        record(name, ticks, success, time.perf_counter() - start)

    walker_net, walker_norm = targets[FLAT]
    for index, kind in enumerate((GAP, HURDLE), start=3):
        start = time.perf_counter()
        target_net, target_norm = targets[kind]
        module = BehaviorModule.from_default(kind, target_net, target_norm,
                                             walker_net, walker_norm)
        curve = train_setup(
            module, walker_net, walker_norm,
            TerrainEnv(single_artifact_course(kind)), PPOConfig(),
            SETUP_BUDGET, np.random.default_rng((SEED, index)),
            eval_every=10, eval_episodes=EVAL_EPISODES, n_workers=2,
            seed_tag=SEED)
        ticks, _, success = curve[-1]
        save_policy(out / f"{kind}_setup.npz", module.setup_net,
                    module.setup_norm)
        record(f"{kind}_setup", ticks, success, time.perf_counter() - start)

    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
