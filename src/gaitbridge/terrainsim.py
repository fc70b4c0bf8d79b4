"""Deterministic 2-D runner simulator with terrain artifacts.

The runner is a point body on a leg. In contact it drives horizontally and
crouches; releasing a deep crouch (a2 <= -0.5 while c >= 0.5) launches it with
vertical speed 6*c*|a2|. Flight integrates constant gravity with the exact
ballistic step so measured jump apexes match w0^2/(2g) to well under a
millimeter. All state advances at a fixed 60 Hz.

Units are meters/seconds throughout. Action components are clipped to [-1, 1]:
a1 drives (forward/brake), a2 moves the crouch (positive deepens; a strong
negative release while crouched triggers the jump).

`TerrainEnv.step` and `observe` advance and read one `RunnerState`. Training
and lone episodes use them, and they are the reference of `RunnerBatch`,
which holds N runners as arrays, each lane on its own course, and steps,
observes and detects all of them with masked numpy operations that repeat
the scalar code's float operations in the same order, so every lane stays
bit-equal to its scalar twin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DT = 1.0 / 60.0          # control and physics step, s
V_MAX = 2.0              # ground speed clamp, m/s
DRIVE_GAIN = 4.0         # horizontal force per unit a1, m/s^2
DRAG = 1.5               # passive speed decay in contact, 1/s
CROUCH_RATE = 4.0        # crouch change per unit a2, 1/s
STAND_HEIGHT = 1.0       # leg length fully extended, m
CROUCH_DEPTH = 0.4       # fraction of leg folded at c=1
JUMP_GAIN = 6.0          # takeoff speed per unit crouch*|a2|, m/s
JUMP_MIN_CROUCH = 0.5
JUMP_TRIGGER_A2 = -0.5
GRAVITY = 9.81           # m/s^2
STEP_UP_LIMIT = 0.15     # max walkable terrain rise per step, m
MAX_STEPS = 900          # episode timeout
PROGRESS_GAIN = 20.0     # reward per meter of forward progress
ALIVE_BONUS = 0.05
FAILURE_PENALTY = 10.0
GOAL_BONUS = 10.0
SPAWN_MAX_X = 2.2        # reset draws x0 ~ U(0, SPAWN_MAX_X)
DETECT_RANGE = 1.0       # oracle fires within this distance of an artifact
OBS_DIM = 10
OBS_PROPRIO = 5          # body-only observation prefix: v, w, height, crouch, contact
GOAL_CLEARANCE = 3.0     # goal sits this far past the last artifact

BLOCK = "block"
GAP = "gap"
HURDLE = "hurdle"
KINDS = (BLOCK, GAP, HURDLE)

# per-kind default geometry: (height, length)
DEFAULT_GEOMETRY = {
    BLOCK: (0.5, 0.3),
    GAP: (0.0, 0.8),
    HURDLE: (0.2, 0.1),
}

FAIL_COLLISION = "collision"
FAIL_GAP = "fell_in_gap"
FAIL_TIMEOUT = "timeout"


class CourseError(ValueError):
    pass


@dataclass(frozen=True)
class Artifact:
    kind: str
    start: float
    height: float
    length: float

    @property
    def end(self):
        return self.start + self.length


def make_artifact(kind, start, height=None, length=None):
    if kind not in KINDS:
        raise CourseError(f"unknown artifact kind {kind!r}")
    dh, dl = DEFAULT_GEOMETRY[kind]
    return Artifact(kind, float(start), dh if height is None else float(height),
                    dl if length is None else float(length))


# highest sole any jump reaches: takeoff speed is at most JUMP_GAIN, m
JUMP_APEX = JUMP_GAIN ** 2 / (2.0 * GRAVITY)


@dataclass(frozen=True)
class Course:
    artifacts: tuple
    goal_x: float

    def validate(self):
        for art in self.artifacts:
            for field, value in (("start", art.start), ("height", art.height),
                                 ("length", art.length)):
                if not np.isfinite(value):
                    raise CourseError(f"{art.kind} {field} {value} is not finite")
        if not np.isfinite(self.goal_x):
            raise CourseError(f"goal {self.goal_x} is not finite")
        prev_end = None
        for art in self.artifacts:
            if art.kind != GAP and not 0.0 < art.height <= JUMP_APEX:
                raise CourseError(
                    f"{art.kind} height {art.height} is outside (0, {JUMP_APEX}], "
                    f"the highest sole a jump reaches")
            if art.length <= 0:
                raise CourseError(f"artifact at {art.start} has non-positive length")
            if prev_end is not None and art.start < prev_end:
                raise CourseError(f"artifact at {art.start} overlaps the previous one")
            prev_end = art.end
        if self.artifacts:
            first = self.artifacts[0]
            if first.start < SPAWN_MAX_X:
                raise CourseError(
                    f"first artifact starts at {first.start}, inside the spawn region "
                    f"(must be >= {SPAWN_MAX_X})")
            if self.goal_x < self.artifacts[-1].end:
                raise CourseError("goal before the last artifact")
        if self.goal_x <= 0:
            raise CourseError("goal must be positive")
        return self


def make_course(artifacts, goal_x=None):
    artifacts = tuple(sorted(artifacts, key=lambda a: a.start))
    if goal_x is None:
        if not artifacts:
            raise CourseError("a course with no artifacts needs an explicit goal")
        goal_x = artifacts[-1].end + GOAL_CLEARANCE
    return Course(artifacts, float(goal_x)).validate()


def flat_course(length=6.0):
    return make_course((), goal_x=length)


def single_artifact_course(kind, start=3.2, height=None, length=None):
    return make_course((make_artifact(kind, start, height, length),))


def multi_terrain_course(order):
    """One artifact of each kind in `order`, from 3.2 m, 3 m apart."""
    if sorted(order) != sorted(KINDS):
        raise CourseError(f"order must be a permutation of {KINDS}, got {order!r}")
    artifacts = []
    x = 3.2
    for kind in order:
        art = make_artifact(kind, x)
        artifacts.append(art)
        x = art.end + 3.0
    return make_course(artifacts)


# ---- course files -----------------------------------------------------------

# override key -> the artifact dimension it sets (width is an alias)
_OVERRIDE_KEYS = {"height": "height", "length": "length", "width": "length"}


def _number(text, what, where):
    try:
        return float(text)
    except ValueError:
        raise CourseError(f"{where}: {what} {text!r} is not a number") from None


def parse_course_text(text, name="<course>"):
    """Parse the line-based course format.

    Each non-empty, non-comment line is either ``<kind> <start> [key=value...]``
    with kind in {block, gap, hurdle} and optional height=/length=/width=
    overrides (width is an alias for length; each dimension is set at most
    once), or ``goal <x>``.
    """
    artifacts = []
    goal_x = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{name}:{lineno}"
        parts = line.split()
        head = parts[0].lower()
        if head == "goal":
            if goal_x is not None:
                raise CourseError(f"{where}: duplicate goal line")
            if len(parts) != 2:
                raise CourseError(f"{where}: goal takes exactly one value")
            goal_x = _number(parts[1], "goal value", where)
            continue
        if head not in KINDS:
            raise CourseError(f"{where}: unknown artifact kind {parts[0]!r}")
        if len(parts) < 2:
            raise CourseError(f"{where}: {head} needs a start position")
        start = _number(parts[1], "start", where)
        sizes = {}
        for token in parts[2:]:
            if "=" not in token:
                raise CourseError(f"{where}: expected key=value, got {token!r}")
            key, _, value = token.partition("=")
            if key not in _OVERRIDE_KEYS:
                raise CourseError(f"{where}: unknown override {key!r}")
            size = _OVERRIDE_KEYS[key]
            if size in sizes:
                raise CourseError(f"{where}: {key}= sets the {size} again")
            sizes[size] = _number(value, f"{key} value", where)
        artifacts.append(make_artifact(head, start, **sizes))
    try:
        return make_course(artifacts, goal_x)
    except CourseError as exc:
        raise CourseError(f"{name}: {exc}") from None


def load_course(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CourseError(f"cannot read course file {path}: {exc}") from None
    return parse_course_text(text, name=str(path))


# ---- terrain queries --------------------------------------------------------

def surface_at(course, x):
    """(support height, is_gap) under coordinate x. Gaps report height 0."""
    for art in course.artifacts:
        if art.start <= x < art.end:
            if art.kind == GAP:
                return 0.0, True
            return art.height, False
        if x < art.start:
            break
    return 0.0, False


def next_artifact(course, x):
    """First artifact not yet traversed (its end is still ahead of x)."""
    for art in course.artifacts:
        if x <= art.end:
            return art
    return None


def leg_length(c):
    return STAND_HEIGHT * (1.0 - CROUCH_DEPTH * c)


# ---- state ------------------------------------------------------------------

@dataclass
class RunnerState:
    x: float = 0.0
    v: float = 0.0
    w: float = 0.0
    h: float = STAND_HEIGHT
    c: float = 0.0
    contact: bool = True
    steps: int = 0
    done: bool = False
    success: bool = False
    failure: str = None


KIND_ONE_HOT = {BLOCK: 0, GAP: 1, HURDLE: 2}


_SCAN = object()  # `observe` finds the next artifact itself


def observe(course, state, art=_SCAN):
    """10-component observation vector (float64).

    `art`, when given, is the state's `next_artifact` (None past the last),
    so that a caller that also detects scans the course once for both.
    """
    if art is _SCAN:
        art = next_artifact(course, state.x)
    obs = np.zeros(OBS_DIM)
    obs[0] = state.v
    obs[1] = state.w
    support, _ = surface_at(course, state.x)
    obs[2] = state.h - support
    obs[3] = state.c
    obs[4] = 1.0 if state.contact else 0.0
    if art is None:
        obs[5] = 2.0
    else:
        obs[5] = min(max(art.start - state.x, 0.0), 2.0)
        # a gap reads as height 0, whatever height its course line gives
        obs[6] = 0.0 if art.kind == GAP else art.height
        obs[7 + KIND_ONE_HOT[art.kind]] = 1.0
    return obs


def detects(art, state):
    """The detection oracle: whether `art`, the state's `next_artifact` (or
    None), starts within DETECT_RANGE ahead of the runner."""
    return art is not None and art.start - state.x <= DETECT_RANGE


class TerrainEnv:
    """Steps RunnerState through the course. Mutates the state it is given."""

    def __init__(self, course):
        self.course = course.validate()

    def reset(self, rng):
        x0 = float(rng.uniform(0.0, SPAWN_MAX_X))
        support, _ = surface_at(self.course, x0)
        return RunnerState(x=x0, h=support + STAND_HEIGHT)

    def reset_from(self, x, v=0.0, c=0.0):
        """Deterministic spawn used by per-kind initial-state distributions.

        v must lie in [0, V_MAX] and c in [0, 1], the ranges the physics
        keeps them in: a negative speed would run the runner backward.
        """
        if not 0.0 <= v <= V_MAX:
            raise ValueError(f"spawn speed {v} outside [0, {V_MAX}]")
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"spawn crouch {c} outside [0, 1]")
        support, is_gap = surface_at(self.course, x)
        if is_gap:
            raise CourseError(f"cannot spawn in contact over a gap at x={x}")
        return RunnerState(x=x, v=v, c=c, h=support + leg_length(c))

    def step(self, state, action):
        """Advance one tick. Returns (reward, done)."""
        if state.done:
            raise RuntimeError("step on a finished episode")
        a1 = min(max(float(action[0]), -1.0), 1.0)
        a2 = min(max(float(action[1]), -1.0), 1.0)
        x_old = state.x
        failure = None

        if state.contact:
            if state.c >= JUMP_MIN_CROUCH and a2 <= JUMP_TRIGGER_A2:
                # takeoff: crouch releases, leg pose freezes until landing
                state.w = JUMP_GAIN * state.c * abs(a2)
                state.contact = False
                failure = self._fly(state)
            else:
                support_old, _ = surface_at(self.course, state.x)
                state.v = min(max(state.v + (DRIVE_GAIN * a1 - DRAG * state.v) * DT, 0.0), V_MAX)
                state.c = min(max(state.c + CROUCH_RATE * a2 * DT, 0.0), 1.0)
                state.x += state.v * DT
                support_new, is_gap = surface_at(self.course, state.x)
                if is_gap:
                    failure = FAIL_GAP
                elif support_new - support_old > STEP_UP_LIMIT:
                    failure = FAIL_COLLISION
                else:
                    state.h = support_new + leg_length(state.c)
        else:
            failure = self._fly(state)

        state.steps += 1

        reward = PROGRESS_GAIN * (state.x - x_old)
        if failure is None and state.x >= self.course.goal_x:
            state.done = True
            state.success = True
            return reward + ALIVE_BONUS + GOAL_BONUS, True
        if failure is None and state.steps > MAX_STEPS:
            failure = FAIL_TIMEOUT
        if failure is not None:
            state.done = True
            state.failure = failure
            return reward - FAILURE_PENALTY, True
        return reward + ALIVE_BONUS, False

    def _fly(self, state):
        """One airborne tick: exact ballistic step, then landing/clip checks.

        Landing happens when the sole crosses down onto a support it was above
        before the step; crossing into a column it was already below means the
        runner hit the artifact's side.
        """
        leg = leg_length(state.c)
        prev_sole = state.h - leg
        state.x += state.v * DT
        state.h += state.w * DT - 0.5 * GRAVITY * DT * DT
        state.w -= GRAVITY * DT
        sole = state.h - leg
        support, is_gap = surface_at(self.course, state.x)
        if is_gap:
            if sole <= 0.0:
                return FAIL_GAP
            return None
        if sole <= support:
            if prev_sole >= support:
                state.h = support + leg
                state.w = 0.0
                state.contact = True
                return None
            return FAIL_COLLISION
        return None


# ---- batches ------------------------------------------------------------------

# failure of a RunnerBatch lane, by code
_FAILURES = (None, FAIL_COLLISION, FAIL_GAP, FAIL_TIMEOUT)

# height an airborne body loses in one tick at zero vertical speed, as `_fly`
# computes it: Python evaluates 0.5 * GRAVITY * DT * DT left to right
_FALL = 0.5 * GRAVITY * DT * DT

# columns of a lane's artifact table; HEIGHT and the one-hot kind after it
# are the observation's last four components, in order
_START, _END, _SUPPORT, _GAP, _HEIGHT = range(5)
_TABLE_COLS = 8


def _artifact_table(course, width):
    """(width, 8) rows of the course's artifacts, then sentinel rows.

    A sentinel starts and ends at +inf, so no runner is over it or past it,
    and it reads as "no artifact ahead": distance 2, height 0, no kind.
    """
    table = np.zeros((width, _TABLE_COLS))
    table[:, _START] = table[:, _END] = np.inf
    for row, art in zip(table, course.artifacts):
        gap = art.kind == GAP
        height = 0.0 if gap else art.height
        row[:_HEIGHT + 1] = (art.start, art.end, height, float(gap), height)
        row[_HEIGHT + 1 + KIND_ONE_HOT[art.kind]] = 1.0
    return table


class RunnerBatch:
    """N runners as arrays, each lane on its own course.

    Holds x, v, w, h, c, contact, steps, done, success and failure code
    (an index into _FAILURES) per lane, and a table of each lane's
    artifacts padded with at least one sentinel row. After every move it
    finds what lies under and ahead of each runner: the support and gap
    under x, from the first row whose end is past x (`surface_at` is half
    open), and the next artifact, the first row whose end is not behind x
    (`next_artifact` is inclusive). A finished lane is stepped no more: the
    caller compacts it away.
    """

    _LANE_ARRAYS = ("x", "v", "w", "h", "c", "contact", "steps", "done",
                    "success", "failure", "goal", "_table")

    def __init__(self, courses, states):
        width = 1 + max(len(course.artifacts) for course in courses)
        self._table = np.stack([_artifact_table(course, width)
                                for course in courses])
        self.goal = np.array([course.goal_x for course in courses])
        for name in ("x", "v", "w", "h", "c"):
            setattr(self, name, np.array([getattr(s, name) for s in states],
                                         dtype=np.float64))
        for name in ("contact", "done", "success"):
            setattr(self, name, np.array([getattr(s, name) for s in states],
                                         dtype=bool))
        self.steps = np.array([s.steps for s in states], dtype=np.int64)
        self.failure = np.array([_FAILURES.index(s.failure) for s in states],
                                dtype=np.int8)
        self._index()

    def __len__(self):
        return len(self.x)

    def _index(self):
        """Flat views of the lane tables, then `_locate`."""
        n, width, _ = self._table.shape
        self._ends = np.ascontiguousarray(self._table[:, :, _END])
        self._rows = self._table.reshape(n * width, _TABLE_COLS)
        self._first_row = np.arange(0, n * width, width)
        self._locate()

    def _locate(self):
        """Artifact rows under and ahead of x, and what they give.

        Under x is the first artifact whose end is past x, ahead of it the
        first whose end is not behind x; the sentinels bound both searches.
        """
        x = self.x[:, None]
        under = self._rows.take(
            self._first_row + (x < self._ends).argmax(axis=1), axis=0)
        self.next_index = (x <= self._ends).argmax(axis=1)
        self._ahead = self._rows.take(self._first_row + self.next_index,
                                      axis=0)
        inside = under[:, _START] <= self.x
        self.support = np.where(inside, under[:, _SUPPORT], 0.0)
        self.over_gap = inside & (under[:, _GAP] > 0.0)
        self.distance = self._ahead[:, _START] - self.x

    def observe(self):
        """(N, OBS_DIM) observations, row i equal to `observe` of lane i."""
        obs = np.empty((len(self), OBS_DIM))
        obs[:, 0] = self.v
        obs[:, 1] = self.w
        np.subtract(self.h, self.support, out=obs[:, 2])
        obs[:, 3] = self.c
        obs[:, 4] = self.contact
        np.minimum(np.maximum(self.distance, 0.0), 2.0, out=obs[:, 5])
        obs[:, 6:] = self._ahead[:, _HEIGHT:]
        return obs

    def detect(self):
        """(hit, next artifact index) per lane, as `detects` finds them.

        An index equal to a lane's artifact count means none is ahead.
        """
        return self.distance <= DETECT_RANGE, self.next_index

    def step(self, actions):
        """Advance every lane one tick; returns the lanes' done mask.

        Repeats `TerrainEnv.step` and `_fly` with masks: ground lanes drive
        and crouch, lanes that take off or are airborne fly. Like
        `TerrainEnv.step`, it raises RuntimeError if a lane has finished.
        It computes no reward; `rewards()` does, for a caller that reads
        them.
        """
        if self.done.any():
            raise RuntimeError("step on a finished lane")
        a = np.asarray(actions, dtype=np.float64).clip(-1.0, 1.0)
        a1, a2 = a[:, 0], a[:, 1]
        self._x_old = x_old = self.x
        h, contact = self.h, self.contact
        support_old = self.support
        takeoff = contact & (self.c >= JUMP_MIN_CROUCH) & (a2 <= JUMP_TRIGGER_A2)
        ground = contact ^ takeoff
        air = ~ground
        w = np.where(takeoff, JUMP_GAIN * self.c * np.abs(a2), self.w)
        v = np.where(ground, (self.v + (DRIVE_GAIN * a1 - DRAG * self.v) * DT)
                     .clip(0.0, V_MAX), self.v)
        c = np.where(ground, (self.c + CROUCH_RATE * a2 * DT).clip(0.0, 1.0),
                     self.c)
        self.x = x = x_old + v * DT
        self._locate()
        support, over_gap = self.support, self.over_gap
        leg = leg_length(c)
        prev_sole = h - leg
        h_air = h + (w * DT - _FALL)
        sole = h_air - leg
        below = sole <= support
        land = air & ~over_gap & below & (prev_sole >= support)
        fell = over_gap & (ground | (sole <= 0.0))
        crashed = ~over_gap & np.where(
            ground, support - support_old > STEP_UP_LIMIT, below & ~land)
        failed = fell | crashed
        settle = land | (ground & ~failed)
        self.h = np.where(settle, support + leg, np.where(ground, h, h_air))
        self.w = np.where(land, 0.0, np.where(ground, w, w - GRAVITY * DT))
        self.v, self.c = v, c
        self.contact = ground | land
        self.steps = steps = self.steps + 1

        ended = failed | (x >= self.goal) | (steps > MAX_STEPS)
        if not ended.any():
            return ended
        success = ~failed & (x >= self.goal)
        timeout = ~failed & ~success & (steps > MAX_STEPS)
        self.failure = np.select([crashed, fell, timeout], [1, 2, 3]
                                 ).astype(np.int8)  # _FAILURES codes
        self.success = success
        self.done = ended
        return ended

    def rewards(self):
        """Each lane's reward for the last `step`, before any `compact`, bit
        for bit the one `TerrainEnv.step` returns: the same float operations
        in the same order."""
        r = PROGRESS_GAIN * (self.x - self._x_old)
        return np.where(self.success, r + ALIVE_BONUS + GOAL_BONUS,
                        np.where(self.failure > 0, r - FAILURE_PENALTY,
                                 r + ALIVE_BONUS))

    def state(self, i):
        """Lane i as a RunnerState."""
        return RunnerState(
            x=float(self.x[i]), v=float(self.v[i]), w=float(self.w[i]),
            h=float(self.h[i]), c=float(self.c[i]),
            contact=bool(self.contact[i]), steps=int(self.steps[i]),
            done=bool(self.done[i]), success=bool(self.success[i]),
            failure=_FAILURES[self.failure[i]])

    def compact(self, keep):
        """Keep only the lanes where the boolean mask `keep` is set."""
        for name in self._LANE_ARRAYS:
            setattr(self, name, getattr(self, name)[keep])
        self._index()


def distance_fraction(course, state):
    """Share of the course behind the runner, in [0, 1]. `x` is the furthest
    it got: speed stays in [0, V_MAX], so `x` never decreases."""
    return min(max(state.x / course.goal_x, 0.0), 1.0)
