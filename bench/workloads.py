"""The three benchmark workloads, each a call into a public entry point.

A workload is built by ``WORKLOADS[name](seed, workdir, **sizes)``; building
it is the set-up the benchmark times (loading fixtures, writing the files the
harness reads, and one warm-up pass at toy size). ``run(i)`` then performs
instance ``i`` with inputs drawn from ``(seed, i)``, checks its outputs, and
returns an ``Outcome``. The default sizes are the benchmark's; tests pass
smaller ones.
"""

import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gaitbridge.composer import BehaviorModule, train_setup, train_target
from gaitbridge.diffcore import ParameterizedNet
from gaitbridge.harness import Checkpoint, load_config, run_evaluation, save_checkpoint
from gaitbridge.policyopt import PPOConfig, RunningNormalizer
from gaitbridge.terrainsim import HURDLE, TerrainEnv, single_artifact_course

FIXTURES = Path(__file__).resolve().parent / "fixtures"
COURSE_FILE = "gap_hurdle.course"
EVAL_ARMS = ("with-setup", "without-setup")
WARMUP = 2**32 - 1  # seed of the warm-up pass, the same for every workload seed


class CheckFailed(AssertionError):
    """A workload's output failed the benchmark's correctness check."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    ticks: int           # environment ticks the instance ran
    seconds: float       # wall time of the entry-point call alone
    digest: str          # sha256 of the instance's seeded results
    success: float = None  # with-setup success rate (bridged-eval only)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def load_fixture(name):
    """(net, normalizer) rebuilt from a frozen fixture's plain arrays."""
    with np.load(FIXTURES / f"{name}.npz", allow_pickle=False) as data:
        params = {k[len("param."):]: data[k] for k in data.files if k.startswith("param.")}
        state = {k[len("norm."):]: data[k] for k in data.files if k.startswith("norm.")}
    return ParameterizedNet.from_params(params), RunningNormalizer.from_state_arrays(state)


def digest_arrays(*named_arrays):
    h = hashlib.sha256()
    for arrays in named_arrays:
        for name in sorted(arrays):
            h.update(name.encode())
            h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def same_arrays(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


class TargetTrain:
    """PPO-train a hurdle specialist from random initialization."""

    def __init__(self, seed, workdir, updates=8, horizon=2048):
        self.seed = seed
        self.config = PPOConfig(horizon=horizon)
        self.budget = updates * self.config.horizon
        self._train(np.random.default_rng(WARMUP), PPOConfig(horizon=512, epochs=1), 512)

    def _train(self, rng, config, budget):
        # stop_at is out of reach and evaluation is empty, so the whole
        # budget always runs and every tick is a training tick
        return timed(train_target, HURDLE, budget, rng, config=config, stop_at=2.0,
                     eval_episodes=0, min_final=None)

    def run(self, i):
        (net, norm, curve), seconds = self._train(
            np.random.default_rng((self.seed, i)), self.config, self.budget)
        steps, updates, _ = curve[-1]
        check(steps == self.budget, f"trained {steps} ticks, budget {self.budget}")
        check(updates == self.budget // self.config.horizon,
              f"{updates} updates, expected {self.budget // self.config.horizon}")
        check(norm.count == self.budget, f"normalizer saw {norm.count} ticks")
        check(all(np.isfinite(p).all() for p in net.params.values()),
              "non-finite parameters after training")
        return Outcome(self.budget, seconds, digest_arrays(net.params, norm.state_arrays()))


class SetupTrain:
    """Train a hurdle setup policy between the frozen walker and specialist."""

    N_WORKERS = 2

    def __init__(self, seed, workdir, budget=100_000, horizon=2048):
        self.seed = seed
        self.budget = budget
        self.config = PPOConfig(horizon=horizon)
        self.walker = load_fixture("flat")
        self.target = load_fixture("hurdle_target")
        self.frozen = {name: arr.copy() for name, arr in self.target[0].params.items()}
        self.course = single_artifact_course(HURDLE)
        self._train(np.random.default_rng(WARMUP), PPOConfig(horizon=64, epochs=1), 2000)

    def _train(self, rng, config, budget):
        walker_net, walker_norm = self.walker
        module = BehaviorModule.from_default(HURDLE, *self.target, walker_net, walker_norm)
        curve, seconds = timed(train_setup, module, walker_net, walker_norm,
                               TerrainEnv(self.course), config, budget, rng,
                               eval_every=0, eval_episodes=0,
                               n_workers=self.N_WORKERS, seed_tag=self.seed)
        return module, curve, seconds

    def run(self, i):
        module, curve, seconds = self._train(np.random.default_rng((self.seed, i)),
                                             self.config, self.budget)
        steps, updates, _ = curve[-1]
        check(steps == self.budget, f"trained {steps} ticks, budget {self.budget}")
        check(same_arrays(module.target_net.params, self.frozen),
              "target parameters changed during setup training")
        # every setup tick updates the setup normalizer once and appends one
        # transition; an update fires when all worker buffers are full and
        # keeps one transition per buffer, so the append count fixes the
        # update count
        appends = module.setup_norm.count - self.walker[1].count
        w, horizon = self.N_WORKERS, self.config.horizon
        expected = max(0, (appends - w) // (w * (horizon - 1)))
        check(updates == expected, f"{updates} updates after {appends} appends, "
                                   f"expected {expected}")
        check(updates >= 1, "budget too small for a single update")
        check(all(np.isfinite(p).all() for p in module.setup_net.params.values()),
              "non-finite setup parameters after training")
        return Outcome(self.budget, seconds, digest_arrays(
            module.setup_net.params, module.setup_norm.state_arrays()))


class BridgedEval:
    """Evaluate the frozen policies, with and without setup, on gap+hurdle."""

    POLICIES = {"walker": "flat", "gap_target": "gap_target", "gap_setup": "gap_setup",
                "hurdle_target": "hurdle_target", "hurdle_setup": "hurdle_setup"}

    def __init__(self, seed, workdir, seeds_per_instance=2, episodes=50):
        self.seed = seed
        self.seeds_per_instance = seeds_per_instance
        self.episodes = episodes
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for ckpt, fixture in self.POLICIES.items():
            save_checkpoint(self.workdir / f"{ckpt}.ckpt", Checkpoint.of(*load_fixture(fixture)))
        shutil.copyfile(FIXTURES / COURSE_FILE, self.workdir / COURSE_FILE)
        self._evaluate("warmup", [WARMUP], 1)

    def _evaluate(self, out, seeds, episodes):
        config = {
            "experiment": "evaluation", "seeds": seeds, "episodes": episodes,
            "course": COURSE_FILE, "output_dir": out,
            "checkpoints": {"default": "walker.ckpt"} | {
                kind: {"target": f"{kind}_target.ckpt", "setup": f"{kind}_setup.ckpt"}
                for kind in ("gap", "hurdle")},
        }
        path = self.workdir / f"{out}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        report, seconds = timed(lambda: run_evaluation(load_config(path)))
        return report, seconds, self.workdir / out

    def run(self, i):
        first = self.seed * 1000 + i * self.seeds_per_instance
        seeds = list(range(first, first + self.seeds_per_instance))
        report, seconds, out = self._evaluate("out", seeds, self.episodes)
        digest = hashlib.sha256()
        ticks = 0
        for arm in EVAL_ARMS:
            csv_lines = (out / f"metrics_{arm}.csv").read_text(encoding="utf-8").splitlines()
            # the first line is the config hash, which covers file paths
            rows = [line.split(",") for line in csv_lines[2:]]
            check(len(rows) == len(seeds) * self.episodes,
                  f"{arm}: {len(rows)} rows, expected {len(seeds) * self.episodes}")
            success = sum(int(r[3]) for r in rows) / len(rows)
            check(report["arms"][arm]["success"] == success,
                  f"{arm}: report success {report['arms'][arm]['success']} != csv {success}")
            ticks += sum(int(r[5]) for r in rows)
            digest.update("\n".join(csv_lines[1:]).encode())
            digest.update((out / f"events_{arm}.jsonl").read_bytes())
        return Outcome(ticks, seconds, digest.hexdigest(),
                       report["arms"]["with-setup"]["success"])


WORKLOADS = {"target-train": TargetTrain, "setup-train": SetupTrain,
             "bridged-eval": BridgedEval}
