"""Count the calls one benchmark instance makes, in process.

    python3 tools/spy_counts.py WORKLOAD --seed N

Builds WORKLOAD of `bench/workloads.py` at seed N with its default sizes,
which runs its warm-up, then counts the calls instance 0 makes and prints
one `name count` line for each:

- `EpisodeDriver.tick`: driver ticks, training and evaluation, lanes that
  finish on `run()` included;
- `EpisodeDriver.replay_opening`: its calls, then those that copied any
  walker tick from the opening record (`replays`) and the ticks copied
  (`replayed ticks`);
- `lane-ticks`: the ticks that training tails ran in `run_lanes` calls;
- `evaluation ticks`: the ticks that evaluation drivers ran in `run_lanes`
  calls, the harness's included; of them, those copied from an opening
  record (`evaluation replayed ticks`) and those of lane batches
  (`evaluation batched lane-ticks`);
- `RunnerBatch.step`: lockstep steps of lane batches;
- `reward_fn`: calls of the trainers' setup reward, one per transition on
  `tick()` and one per lockstep step of a batch of tails;
- `RolloutBuffer.add_reward` and `Trainer.update`: their calls;
- `CarriedTarget passes`: the target's trunk passes that drivers' carried
  targets run on `tick()`, those that `policy_trunk` runs inside
  `CarriedTarget._slot`;
- `deferred rewards filled`: the pending setup rewards that
  `RolloutBuffer.fill_rewards` wrote before updates.

The package comes from this checkout's `src`. A counted function that the
package does not define prints `absent`. One BLAS thread, as `bench/run.py`.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _path in (ROOT / "bench", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from gaitbridge import composer, policyopt  # noqa: E402
from gaitbridge.harness import experiments  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (label, owner, attribute) of each method whose calls are counted
METHODS = (("EpisodeDriver.tick", composer.EpisodeDriver, "tick"),
           ("EpisodeDriver.replay_opening", composer.EpisodeDriver,
            "replay_opening"),
           ("RunnerBatch.step", composer.RunnerBatch, "step"),
           ("RolloutBuffer.add_reward", policyopt.RolloutBuffer, "add_reward"),
           ("Trainer.update", composer.Trainer, "update"),
           ("deferred rewards filled", policyopt.RolloutBuffer,
            "fill_rewards"))
ORDER = ("EpisodeDriver.tick", "EpisodeDriver.replay_opening", "replays",
         "replayed ticks", "lane-ticks", "evaluation ticks",
         "evaluation replayed ticks", "evaluation batched lane-ticks",
         "RunnerBatch.step", "reward_fn",
         "RolloutBuffer.add_reward", "Trainer.update", "CarriedTarget passes",
         "deferred rewards filled")


def spy_counts(workload, seed, **sizes):
    """{label: count}, in ORDER, of instance 0 of `workload` built at
    `seed` with `sizes`; None for a method the package does not define."""
    counts = dict.fromkeys(ORDER, 0)
    trainer_init = composer.Trainer.__init__
    policy_trunk, in_slot = composer.policy_trunk, [False]
    slot = getattr(composer.CarriedTarget, "_slot", None)

    def count(label, fn, after=None):
        def spy(*args, **kwargs):
            result = fn(*args, **kwargs)
            if after is None:
                counts[label] += 1
            else:
                after(result, *args)
            return result
        return spy

    def replayed(ticks, driver, *_):
        counts["EpisodeDriver.replay_opening"] += 1
        counts["replays"] += ticks > 0
        counts["replayed ticks"] += ticks
        if driver.trainer is None:
            counts["evaluation replayed ticks"] += ticks

    def filled(rows, *_):
        counts["deferred rewards filled"] += rows

    # a counted method whose result counts, not its calls
    hooks = {"replay_opening": replayed, "fill_rewards": filled}

    def ticked(fn, training, evaluation):
        """A spy on `fn(drivers, *limit)` that adds the ticks its training
        drivers ran to the `training` count, and its evaluation drivers'
        to the `evaluation` one."""
        def spy(drivers, *limit):
            before = [drv.state.steps for drv in drivers]
            result = fn(drivers, *limit)
            for drv, steps in zip(drivers, before):
                label = evaluation if drv.trainer is None else training
                if label is not None:
                    counts[label] += drv.state.steps - steps
            return result
        return spy

    def spy_trainer_init(trainer, *args, **kwargs):
        trainer_init(trainer, *args, **kwargs)
        trainer.reward_fn = count("reward_fn", trainer.reward_fn)

    def spy_slot(carry, obs_raw):
        in_slot[0] = True
        try:
            return slot(carry, obs_raw)
        finally:
            in_slot[0] = False

    def spy_policy_trunk(*args):
        counts["CarriedTarget passes"] += in_slot[0]
        return policy_trunk(*args)

    # the harness imports run_lanes by name
    spy_run_lanes = ticked(composer.run_lanes, "lane-ticks",
                           "evaluation ticks")
    spies = [(composer, "run_lanes", spy_run_lanes),
             (experiments, "run_lanes", spy_run_lanes),
             (composer, "_run_batch", ticked(
                 composer._run_batch, None, "evaluation batched lane-ticks")),
             (composer.Trainer, "__init__", spy_trainer_init)]
    if slot is None:
        counts["CarriedTarget passes"] = None
    else:
        spies += [(composer.CarriedTarget, "_slot", spy_slot),
                  (composer, "policy_trunk", spy_policy_trunk)]
    for label, owner, name in METHODS:
        if hasattr(owner, name):
            spies.append((owner, name, count(
                label, getattr(owner, name), hooks.get(name))))
        else:
            counts[label] = None
            if name == "replay_opening":
                counts["replays"] = counts["replayed ticks"] = None
    with tempfile.TemporaryDirectory() as workdir:
        bench = WORKLOADS[workload](seed, workdir, **sizes)
        saved = [(owner, name, getattr(owner, name))
                 for owner, name, _ in spies]
        try:
            for owner, name, spy in spies:
                setattr(owner, name, spy)
            bench.run(0)
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for label, count in spy_counts(args.workload, args.seed).items():
        print(f"{label} {'absent' if count is None else count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
