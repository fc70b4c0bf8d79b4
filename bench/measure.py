"""Timed loops: the plain run (end-to-end metrics) and the traced run.

Both loops start instances until ``seconds`` have passed (at least one) and
stop at the first failure. An instance that raises counts as failed; one
whose outputs fail a check makes the run incorrect.

The host's speed drifts by up to 1.7x within seconds on shared machines, far
more than the changes the benchmark must resolve. So the plain run samples it:
every ``PROBE_PERIOD_S`` a SIGALRM handler times a tiny fixed loop, and each
timed section is rescaled to a host on which that loop takes
``PROBE_REFERENCE_S``, using the mean probe time within the section.
"""

import bisect
import resource
import signal
import statistics
import sys
import time
import traceback

import numpy as np

from tracing import Target, Tracer
from workloads import CheckFailed


PROBE_PERIOD_S = 0.05
PROBE_REFERENCE_S = 0.001
SETUP_REPEATS = 5

_rng = np.random.default_rng(0)
_W1 = _rng.standard_normal((10, 64)) / 4
_W2 = _rng.standard_normal((64, 64)) / 8
_X0 = _rng.standard_normal(10)


def probe_loop(iterations=100):
    """A fixed loop made of the program's kinds of operations: tiny matrix
    products, tanh, and scalar Python."""
    x, v = _X0, 0.0
    for _ in range(iterations):
        h = np.tanh(np.tanh(x @ _W1) @ _W2)
        v = min(max(v + float(h[0]) * 0.1, -1.0), 1.0)
        x = x * 0.5 + 0.1
    return v


class HostSpeed:
    """Samples the host's speed while the block runs."""

    def __enter__(self):
        self.at, self.took = [], []
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe_loop()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def slowness(self, t0, t1):
        """Mean probe time from t0 to t1 (the nearest probe if none ran)
        over the reference: above 1 on a slower host than the reference."""
        i, j = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        took = self.took[i:j] or self.took[max(0, i - 1):i + 1]
        return statistics.fmean(took) / PROBE_REFERENCE_S


def _obs_rows(args):
    obs = args[1]
    return obs.shape[0] if obs.ndim == 2 else 1


TARGETS = (
    Target("terrainsim.step", "gaitbridge.terrainsim:TerrainEnv.step"),
    Target("terrainsim.observe", "gaitbridge.terrainsim:observe"),
    Target("policyopt.policy_act", "gaitbridge.policyopt:policy_act"),
    Target("policyopt.normalizer", "gaitbridge.policyopt:RunningNormalizer.normalize"),
    Target("policyopt.normalizer", "gaitbridge.policyopt:RunningNormalizer.update"),
    Target("policyopt.gae", "gaitbridge.policyopt:gae_advantages"),
    Target("policyopt.ppo_update", "gaitbridge.policyopt:ppo_update"),
    Target("policyopt.buffer_append", "gaitbridge.policyopt:RolloutBuffer.append"),
    Target("diffcore.forward", "gaitbridge.diffcore.net:ParameterizedNet.forward", _obs_rows),
    Target("diffcore.forward", "gaitbridge.diffcore.net:ParameterizedNet.value_of", _obs_rows),
    Target("diffcore.backward", "gaitbridge.diffcore.tape:GradientTape.backward"),
    Target("diffcore.adam_step", "gaitbridge.diffcore.optim:adam_step"),
    Target("composer.tick", "gaitbridge.composer:EpisodeDriver.tick"),
    Target("composer.episode", "gaitbridge.composer:EpisodeDriver.__init__"),
    Target("composer.switch", "gaitbridge.composer:SwitchState.transition"),
    Target("composer.reward", "gaitbridge.composer:awtv_step_reward"),
    Target("composer.target_value", "gaitbridge.composer:BehaviorModule.target_value"),
    Target("harness.load_policy", "gaitbridge.harness.checkpoint:load_policy"),
    Target("harness.write", "gaitbridge.harness.experiments:write_metrics_csv"),
    Target("harness.write", "gaitbridge.harness.experiments:write_events_jsonl"),
    Target("harness.write", "gaitbridge.harness.experiments:write_report"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, instances):
    """Per-layer metrics, per traced instance; a layer that never ran reads 0."""
    def calls(name):
        return spans[name]["calls"] / instances

    def mean(name, key="seconds", scale=1e6):
        return _ratio(spans[name][key], spans[name]["calls"]) * scale

    durations = spans["policyopt.ppo_update"]["durations"]
    return {
        "terrainsim.step.calls": (calls("terrainsim.step"), "count"),
        "terrainsim.step.us": (mean("terrainsim.step"), "us"),
        "terrainsim.observe.calls": (calls("terrainsim.observe"), "count"),
        "terrainsim.observe.us": (mean("terrainsim.observe"), "us"),
        "policyopt.policy_act.calls": (calls("policyopt.policy_act"), "count"),
        "policyopt.policy_act.us": (mean("policyopt.policy_act"), "us"),
        "policyopt.normalizer.calls": (calls("policyopt.normalizer"), "count"),
        "policyopt.normalizer.us": (mean("policyopt.normalizer"), "us"),
        "policyopt.gae.us": (mean("policyopt.gae"), "us"),
        "policyopt.ppo_update.calls": (calls("policyopt.ppo_update"), "count"),
        "policyopt.ppo_update.ms_p50": (
            float(np.median(durations)) * 1e3 if durations.size else 0.0, "ms"),
        "diffcore.forward.calls": (calls("diffcore.forward"), "count"),
        "diffcore.forward.rows_per_call": (mean("diffcore.forward", "rows", 1.0), "rows"),
        "diffcore.forward.us": (mean("diffcore.forward"), "us"),
        "diffcore.backward.calls": (calls("diffcore.backward"), "count"),
        "diffcore.backward.us": (mean("diffcore.backward"), "us"),
        "diffcore.adam_step.calls": (calls("diffcore.adam_step"), "count"),
        "diffcore.adam_step.us": (mean("diffcore.adam_step"), "us"),
        "composer.tick.calls": (calls("composer.tick"), "count"),
        "composer.tick.self_us": (mean("composer.tick", "self_seconds"), "us"),
        "composer.reward.calls": (calls("composer.reward"), "count"),
        "composer.reward.us": (mean("composer.reward"), "us"),
        "composer.target_value.per_reward": (
            _ratio(spans["composer.target_value"]["calls"],
                   spans["composer.reward"]["calls"]), "count"),
        "composer.setup_share": (
            _ratio(spans["policyopt.buffer_append"]["calls"],
                   spans["terrainsim.step"]["calls"]), "ratio"),
        "composer.switches_per_episode": (
            _ratio(spans["composer.switch"]["calls"],
                   spans["composer.episode"]["calls"]), "count"),
        "harness.load_policy.ms": (mean("harness.load_policy", scale=1e3), "ms"),
        "harness.write.ms": (mean("harness.write", scale=1e3), "ms"),
    }


class Loop:
    """Instance bookkeeping shared by both runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []
        self._marks = []

    def more(self, start, seconds):
        """Whether another round fits: the first always does, and a later
        one only if a round as long as the median so far ends in time."""
        self._marks.append(time.perf_counter())
        if len(self._marks) < 2:
            return True
        rounds = [b - a for a, b in zip(self._marks, self._marks[1:])]
        return self._marks[-1] - start + statistics.median(rounds) <= seconds

    def run(self, workload, i):
        """The instance's Outcome, or None after recording why it failed."""
        self.attempted += 1
        try:
            return workload.run(i)
        except CheckFailed as exc:
            self.notes.append(f"check failed: {exc}")
        except Exception:  # the run must still print its result line
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
        self.correct = False
        return None

    def result(self, digest, metrics):
        return {"correct": self.correct and self.attempted > self.failed,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()},
                "digest": digest, "notes": self.notes}


def measure_plain(make, seconds):
    loop = Loop()
    setup, setup_s, rates, wall_rates, digest = [], [], [], [], None
    with HostSpeed() as host:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = make()
            t1 = time.perf_counter()
            setup.append(t1 - t0)
            setup_s.append(setup[-1] / host.slowness(t0, t1))
        start = time.perf_counter()
        while loop.more(start, seconds):
            t0 = time.perf_counter()
            out = loop.run(workload, len(rates))
            if out is None:
                break
            digest = digest or out.digest
            wall_rates.append(out.ticks / out.seconds)
            rates.append(wall_rates[-1] * host.slowness(t0, time.perf_counter()))
    if rates:
        loop.notes.append(
            f"host: probe median {statistics.median(host.took) * 1e3:.3f} ms "
            f"(reference {PROBE_REFERENCE_S * 1e3:.3f} ms); unscaled ticks_per_s "
            f"median {statistics.median(wall_rates):.1f}, setup_s median "
            f"{statistics.median(setup):.6f}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return loop.result(digest, {
        "ticks_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })


def measure_layers(make, seconds):
    """Alternate plain and traced runs of instance 0; report the traced spans."""
    workload = make()
    tracer = Tracer(TARGETS)
    loop = Loop()
    plain, traced, digest, success = [], [], None, 0.0
    start = time.perf_counter()
    while loop.more(start, seconds):
        out = loop.run(workload, 0)
        if out is None:
            break
        plain.append(out.seconds)
        digest = digest or out.digest
        tracer.install()
        try:
            out = loop.run(workload, 0)
        finally:
            tracer.uninstall()
        if out is None:
            break
        if out.digest != digest:
            loop.correct = False
            loop.notes.append("check failed: traced instance moved the seeded results")
            break
        traced.append(out.seconds)
        success = out.success or 0.0
    loop.notes.extend(f"absent: {t.span} ({t.where})" for t in tracer.absent)
    metrics = layer_metrics(tracer.summary(), max(len(traced), 1))
    metrics["trace.overhead"] = (
        _ratio(statistics.median(traced), statistics.median(plain)) if traced else 0.0,
        "ratio")
    metrics["success_rate"] = (success, "ratio")
    metrics["error_rate"] = (_ratio(loop.failed, loop.attempted), "ratio")
    return loop.result(digest, metrics)
