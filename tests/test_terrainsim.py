import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitbridge.policyopt import RunningNormalizer
from gaitbridge.terrainsim import (
    ALIVE_BONUS,
    BLOCK,
    KINDS,
    CROUCH_RATE,
    CourseError,
    DETECT_RANGE,
    DRAG,
    DRIVE_GAIN,
    DT,
    FAIL_COLLISION,
    FAIL_GAP,
    FAIL_TIMEOUT,
    FAILURE_PENALTY,
    GAP,
    GOAL_BONUS,
    GRAVITY,
    HURDLE,
    JUMP_APEX,
    JUMP_GAIN,
    KIND_ONE_HOT,
    MAX_STEPS,
    OBS_DIM,
    PROGRESS_GAIN,
    SPAWN_MAX_X,
    STAND_HEIGHT,
    STEP_UP_LIMIT,
    V_MAX,
    RunnerBatch,
    TerrainEnv,
    detects,
    distance_fraction,
    flat_course,
    leg_length,
    make_artifact,
    make_course,
    multi_terrain_course,
    next_artifact,
    observe,
    parse_course_text,
    single_artifact_course,
    surface_at,
)


def _flat_env(goal=50.0):
    return TerrainEnv(flat_course(goal))


# ---- drive / crouch recurrences ----------------------------------------------


def test_drive_from_rest_matches_geometric_series():
    # v_{k+1} = v_k (1 - DRAG dt) + DRIVE_GAIN a1 dt, so from rest
    # v_k = (DRIVE_GAIN a1 / DRAG) (1 - r^k) with r = 1 - DRAG dt, until the clamp
    env = _flat_env()
    state = env.reset_from(0.0)
    a1 = 1.0
    r = 1.0 - DRAG * DT
    v_inf = DRIVE_GAIN * a1 / DRAG
    for k in range(1, 51):
        env.step(state, (a1, 0.0))
        expected = v_inf * (1.0 - r**k)
        assert state.v == pytest.approx(expected, abs=1e-9)
    for _ in range(120):
        env.step(state, (a1, 0.0))
    assert state.v == 2.0  # clamp is exact


def test_position_is_time_integral_of_speed():
    env = _flat_env()
    rng = np.random.default_rng(3)
    state = env.reset_from(0.3)
    x = state.x
    total = 0.0
    for _ in range(200):
        a1 = float(rng.uniform(-1, 1))
        env.step(state, (a1, 0.0))
        total += state.v * DT
    assert state.x == pytest.approx(x + total, abs=1e-12)


def test_crouch_rate_and_clamp():
    env = _flat_env()
    state = env.reset_from(0.0)
    env.step(state, (0.0, 1.0))
    assert state.c == pytest.approx(CROUCH_RATE * DT, abs=1e-15)
    for _ in range(30):
        env.step(state, (0.0, 1.0))
    assert state.c == 1.0
    env.step(state, (0.0, -0.25))  # shallow release: crouch shrinks, no jump
    assert state.contact
    assert state.c == pytest.approx(1.0 - CROUCH_RATE * 0.25 * DT, abs=1e-15)


def test_standing_height_tracks_crouch():
    env = _flat_env()
    state = env.reset_from(0.0)
    for _ in range(5):
        env.step(state, (0.0, 1.0))
    assert state.h == pytest.approx(leg_length(state.c), abs=1e-15)


# ---- jump trigger -------------------------------------------------------------


def test_full_crouch_full_release_takes_off_at_six():
    env = _flat_env()
    state = env.reset_from(1.0, c=1.0)
    env.step(state, (0.0, -1.0))
    assert not state.contact
    # the takeoff tick already integrated one ballistic step
    w0 = JUMP_GAIN * 1.0 * 1.0
    assert state.w == w0 - GRAVITY * DT
    assert state.h == pytest.approx(leg_length(1.0) + w0 * DT - 0.5 * GRAVITY * DT * DT, abs=1e-15)


def test_trigger_uses_pre_update_crouch():
    env = _flat_env()
    state = env.reset_from(1.0, c=0.45)
    env.step(state, (0.0, -1.0))
    assert state.contact  # 0.45 < 0.5 at the instant of release: no jump
    assert state.c == pytest.approx(0.45 - CROUCH_RATE * DT, abs=1e-15)


def test_trigger_needs_strong_release():
    env = _flat_env()
    state = env.reset_from(1.0, c=0.8)
    env.step(state, (0.0, -0.49))
    assert state.contact
    env.step(state, (0.0, -0.5))
    assert not state.contact
    # w0 = JUMP_GAIN * c * |a2| with the crouch held at its pre-release value
    c_pre = 0.8 - CROUCH_RATE * 0.49 * DT
    assert state.w == pytest.approx(JUMP_GAIN * c_pre * 0.5 - GRAVITY * DT, abs=1e-12)


def test_crouch_to_airborne_needs_nine_ticks():
    # crouch grows at most CROUCH_RATE*dt = 1/15 per tick and the trigger reads
    # the pre-update value, so no action sequence leaves the ground in 8 ticks;
    # checked exhaustively over bang-bang crouch actions
    def airborne_within(budget):
        frontier = {(True, 0.0)}
        for _ in range(budget):
            nxt = set()
            for contact, c in frontier:
                if not contact:
                    return True
                for a2 in (-1.0, -0.5, 0.0, 1.0):
                    if c >= 0.5 and a2 <= -0.5:
                        nxt.add((False, c))
                    else:
                        c2 = min(max(c + CROUCH_RATE * a2 * DT, 0.0), 1.0)
                        nxt.add((True, round(c2, 12)))
            frontier = nxt
        return any(not contact for contact, _ in frontier)

    assert not airborne_within(8)
    assert airborne_within(9)

    env = _flat_env()
    state = env.reset_from(0.0)
    for _ in range(8):
        env.step(state, (0.0, 1.0))
    assert state.contact
    env.step(state, (0.0, -1.0))
    assert not state.contact
    assert state.steps == 9


# ---- ballistic flight ----------------------------------------------------------


def test_flight_matches_closed_form():
    env = _flat_env()
    state = env.reset_from(1.0, c=1.0)
    env.step(state, (0.0, -1.0))
    h0 = leg_length(1.0)
    w0 = JUMP_GAIN
    for k in range(2, 30):
        if state.contact or state.done:
            break
        env.step(state, (0.0, 0.0))
        t = k * DT
        assert state.h == pytest.approx(h0 + w0 * t - 0.5 * GRAVITY * t * t, abs=1e-9)
        assert state.w == pytest.approx(w0 - GRAVITY * t, abs=1e-9)


@pytest.mark.parametrize("c,a2", [(0.5, -0.5), (0.7, -1.0), (1.0, -1.0), (0.6, -0.8)])
def test_measured_apex_matches_ballistics(c, a2):
    env = _flat_env()
    state = env.reset_from(1.0, c=c)
    env.step(state, (0.0, a2))
    w0 = JUMP_GAIN * c * abs(a2)
    apex = leg_length(c)
    while not state.contact and not state.done:
        apex = max(apex, state.h)
        env.step(state, (0.0, 0.0))
        apex = max(apex, state.h)
    assert apex == pytest.approx(leg_length(c) + w0 * w0 / (2.0 * GRAVITY), abs=1e-3)


def test_landing_restores_contact_exactly():
    env = _flat_env()
    state = env.reset_from(1.0, c=1.0)
    env.step(state, (0.0, -1.0))
    while not state.contact:
        env.step(state, (0.0, 0.0))
    assert state.h == leg_length(1.0)  # snapped to support + leg
    assert state.w == 0.0
    assert not state.done


# ---- terrain interactions -------------------------------------------------------


def test_walkable_rise_at_limit():
    env = TerrainEnv(single_artifact_course(BLOCK, start=3.2, height=STEP_UP_LIMIT))
    state = env.reset_from(2.0, v=1.0)
    while not state.done and state.x < 3.3:
        env.step(state, (0.5, 0.0))
    assert not state.done
    support, _ = surface_at(env.course, state.x)
    assert support == STEP_UP_LIMIT
    assert state.h == pytest.approx(STEP_UP_LIMIT + leg_length(state.c), abs=1e-12)


def test_rise_above_limit_collides():
    env = TerrainEnv(single_artifact_course(BLOCK, start=3.2, height=0.16))
    state = env.reset_from(2.0, v=1.0)
    while not state.done:
        env.step(state, (0.5, 0.0))
    assert state.failure == FAIL_COLLISION
    assert state.x >= 3.2 - 1e-9
    assert not state.success


def test_walking_into_gap_falls():
    env = TerrainEnv(single_artifact_course(GAP, start=3.2))
    state = env.reset_from(2.5, v=1.0)
    reward = 0.0
    while not state.done:
        reward, done = env.step(state, (0.5, 0.0))
    assert state.failure == FAIL_GAP
    dx = state.x - (state.x - state.v * DT)
    assert reward == pytest.approx(PROGRESS_GAIN * dx - FAILURE_PENALTY, abs=1e-12)


def test_stepping_down_a_block_is_fine():
    env = TerrainEnv(single_artifact_course(BLOCK, start=3.2, height=0.12, length=0.3))
    state = env.reset_from(2.8, v=1.0)
    for _ in range(120):
        if state.done:
            break
        env.step(state, (0.5, 0.0))
    assert not state.done
    assert state.x > 3.6  # crossed the block and stepped back down


def test_low_hop_into_block_side_collides():
    env = TerrainEnv(single_artifact_course(BLOCK, start=3.2))  # 0.5 tall
    state = env.reset_from(3.0, v=1.0, c=0.5)
    env.step(state, (0.0, -0.5))  # w0 = 1.5, apex ~0.11 above the sole
    assert not state.contact
    while not state.done:
        env.step(state, (0.0, 0.0))
    assert state.failure == FAIL_COLLISION


def test_jump_short_of_gap_far_edge_falls_in():
    env = TerrainEnv(single_artifact_course(GAP, start=3.2))  # 0.8 wide
    state = env.reset_from(3.0, v=0.5, c=1.0)
    env.step(state, (0.0, -0.5))  # slow and shallow: comes down inside the gap
    while not state.done:
        env.step(state, (0.0, 0.0))
    assert state.failure == FAIL_GAP
    assert 3.2 <= state.x < 4.0


# ---- scripted traversals ---------------------------------------------------------


def _run_script(kind, drive_a1, crouch_target, jump_at):
    env = TerrainEnv(single_artifact_course(kind, start=3.2))
    state = env.reset_from(0.5)
    while not state.done:
        if state.contact:
            if state.x >= jump_at and state.c >= 0.5:
                action = (drive_a1, -1.0)
            elif state.c < crouch_target and state.x >= jump_at - 1.2:
                action = (drive_a1, 1.0)
            else:
                action = (drive_a1, 0.0)
        else:
            action = (0.0, 0.0)
        env.step(state, action)
    return state


@pytest.mark.parametrize(
    "kind,drive_a1,crouch_target,jump_at",
    [(BLOCK, 0.375, 1.0, 2.7), (GAP, 1.0, 1.0, 3.0), (HURDLE, 0.375, 0.7, 2.85)],
)
def test_scripted_traversal_succeeds(kind, drive_a1, crouch_target, jump_at):
    state = _run_script(kind, drive_a1, crouch_target, jump_at)
    assert state.success, f"{kind}: {state.failure} at x={state.x:.2f}"
    assert state.failure is None


# ---- episode bookkeeping ----------------------------------------------------------


def test_reset_distribution_and_initial_state():
    env = _flat_env()
    rng = np.random.default_rng(7)
    xs = []
    for _ in range(10_000):
        state = env.reset(rng)
        xs.append(state.x)
        assert state.v == 0.0 and state.w == 0.0 and state.c == 0.0
        assert state.contact and state.h == STAND_HEIGHT
    xs = np.asarray(xs)
    assert xs.min() >= 0.0 and xs.max() < SPAWN_MAX_X
    assert xs.mean() == pytest.approx(SPAWN_MAX_X / 2.0, abs=0.05)


def test_reset_from_rejects_gap_spawn():
    env = TerrainEnv(single_artifact_course(GAP, start=3.2))
    with pytest.raises(CourseError):
        env.reset_from(3.5)


@pytest.mark.parametrize("v, c", [(-1.0, 1.0), (V_MAX + 1e-9, 0.0),
                                  (0.0, 1.5), (0.0, -0.1), (np.nan, 0.0)])
def test_reset_from_rejects_speed_or_crouch_out_of_range(v, c):
    # v=-1 with c=1 would jump backward, c=1.5 would spawn on a 0.4 m leg
    with pytest.raises(ValueError, match="outside"):
        _flat_env().reset_from(1.0, v=v, c=c)


def test_reset_from_on_block_top():
    env = TerrainEnv(single_artifact_course(BLOCK, start=3.2))
    state = env.reset_from(3.3, c=0.5)
    assert state.h == pytest.approx(0.5 + leg_length(0.5), abs=1e-12)


def test_timeout_after_max_steps():
    env = _flat_env(goal=50.0)
    state = env.reset_from(0.0)
    reward = None
    while not state.done:
        reward, done = env.step(state, (0.0, 0.0))
    assert state.steps == MAX_STEPS + 1
    assert state.failure == FAIL_TIMEOUT
    assert not state.success
    assert reward == -FAILURE_PENALTY  # no alive bonus on the failing tick


def test_goal_tick_pays_goal_and_alive_bonus():
    env = _flat_env(goal=1.0)
    state = env.reset_from(0.98, v=2.0)
    reward, done = env.step(state, (1.0, 0.0))
    assert done and state.success
    assert reward == pytest.approx(
        PROGRESS_GAIN * (state.x - 0.98) + ALIVE_BONUS + GOAL_BONUS, abs=1e-12)


def test_ordinary_tick_reward_is_progress_plus_alive():
    env = _flat_env()
    state = env.reset_from(0.5, v=1.0)
    x_before = state.x
    reward, done = env.step(state, (0.25, 0.0))
    assert not done
    assert reward == pytest.approx(PROGRESS_GAIN * (state.x - x_before) + ALIVE_BONUS, abs=1e-12)


def test_step_after_done_raises():
    env = _flat_env(goal=0.5)
    state = env.reset_from(0.48, v=2.0)
    env.step(state, (1.0, 0.0))
    assert state.done
    with pytest.raises(RuntimeError):
        env.step(state, (0.0, 0.0))


def test_distance_fraction_clamped():
    course = flat_course(6.0)
    env = TerrainEnv(course)
    assert distance_fraction(course, env.reset_from(3.0)) == 0.5
    assert distance_fraction(course, env.reset_from(9.0)) == 1.0
    assert distance_fraction(course, env.reset_from(-1.0)) == 0.0


# ---- observations and detection -----------------------------------------------------


def test_observation_layout_near_block():
    course = single_artifact_course(BLOCK, start=3.2)
    env = TerrainEnv(course)
    state = env.reset_from(2.0, v=1.3, c=0.25)
    obs = observe(course, state)
    assert obs.shape == (10,)
    assert obs[0] == 1.3
    assert obs[1] == 0.0
    assert obs[2] == pytest.approx(leg_length(0.25), abs=1e-12)
    assert obs[3] == 0.25
    assert obs[4] == 1.0
    assert obs[5] == pytest.approx(1.2, abs=1e-12)
    assert obs[6] == 0.5
    assert list(obs[7:]) == [1.0, 0.0, 0.0]


def test_observation_distance_clips_at_two():
    course = single_artifact_course(HURDLE, start=10.0)
    env = TerrainEnv(course)
    state = env.reset_from(1.0)
    obs = observe(course, state)
    assert obs[5] == 2.0
    assert list(obs[7:]) == [0.0, 0.0, 1.0]


def test_observation_past_all_artifacts():
    course = single_artifact_course(GAP, start=3.2)
    env = TerrainEnv(course)
    state = env.reset_from(5.0)
    obs = observe(course, state)
    assert obs[5] == 2.0
    assert obs[6] == 0.0
    assert list(obs[7:]) == [0.0, 0.0, 0.0]


def test_observation_inside_artifact_column():
    course = single_artifact_course(BLOCK, start=3.2)
    env = TerrainEnv(course)
    state = env.reset_from(3.3)
    obs = observe(course, state)
    assert obs[5] == 0.0  # distance floored at zero while traversing
    assert obs[2] == pytest.approx(leg_length(0.0), abs=1e-12)  # height above the top
    assert list(obs[7:]) == [1.0, 0.0, 0.0]


def test_oracle_detection_boundary_inclusive():
    course = single_artifact_course(GAP, start=3.2)
    state = TerrainEnv(course).reset_from(3.2 - DETECT_RANGE)
    art = next_artifact(course, state.x)
    assert detects(art, state) and art.kind == GAP
    state.x -= 1e-9
    assert not detects(next_artifact(course, state.x), state)


def test_oracle_detection_switches_to_next_artifact():
    course = multi_terrain_course((BLOCK, GAP, HURDLE))
    state = TerrainEnv(course).reset_from(0.0)
    block = course.artifacts[0]
    state.x = block.end  # boundary: still attributed to the block
    art = next_artifact(course, state.x)
    assert detects(art, state) and art.kind == BLOCK
    state.x = np.nextafter(block.end, 10.0)
    # the gap is still more than DETECT_RANGE ahead
    assert not detects(next_artifact(course, state.x), state)
    state.x = course.artifacts[1].start - DETECT_RANGE
    art = next_artifact(course, state.x)
    assert detects(art, state) and art.kind == GAP


def test_surface_half_open_interval():
    course = single_artifact_course(BLOCK, start=3.2)  # length 0.3
    assert surface_at(course, 3.2) == (0.5, False)
    assert surface_at(course, np.nextafter(3.5, 0.0)) == (0.5, False)
    assert surface_at(course, 3.5) == (0.0, False)
    assert next_artifact(course, 3.5).kind == BLOCK  # end boundary inclusive
    assert next_artifact(course, np.nextafter(3.5, 10.0)) is None


# ---- course construction and files ----------------------------------------------------


def test_make_course_sorts_and_defaults_goal():
    late = make_artifact(HURDLE, 8.0)
    early = make_artifact(BLOCK, 3.2)
    course = make_course([late, early])
    assert [a.kind for a in course.artifacts] == [BLOCK, HURDLE]
    assert course.goal_x == pytest.approx(late.end + 3.0)


def test_course_rejects_overlap():
    with pytest.raises(CourseError, match="overlap"):
        make_course([make_artifact(BLOCK, 3.2), make_artifact(GAP, 3.4)])


def test_course_rejects_spawn_region_artifact():
    with pytest.raises(CourseError, match="spawn"):
        make_course([make_artifact(BLOCK, 1.0)])


def test_course_rejects_goal_before_last_artifact():
    with pytest.raises(CourseError, match="goal"):
        make_course([make_artifact(BLOCK, 3.2)], goal_x=3.3)


def test_course_rejects_bad_length():
    with pytest.raises(CourseError, match="length"):
        make_course([make_artifact(BLOCK, 3.2, length=0.0)])


def test_multi_terrain_course_orders_and_separates():
    course = multi_terrain_course((GAP, HURDLE, BLOCK))
    kinds = [a.kind for a in course.artifacts]
    assert kinds == [GAP, HURDLE, BLOCK]
    assert course.artifacts[0].start == 3.2
    for prev, nxt in zip(course.artifacts, course.artifacts[1:]):
        assert nxt.start == pytest.approx(prev.end + 3.0)
    with pytest.raises(CourseError):
        multi_terrain_course((GAP, GAP, BLOCK))


def test_parse_course_roundtrip():
    text = """
    # a short mixed course
    block 3.2 height=0.4
    gap 5.0 width=0.6
    hurdle 7.0 length=0.2

    goal 11.5
    """
    course = parse_course_text(text, name="mixed")
    assert [a.kind for a in course.artifacts] == [BLOCK, GAP, HURDLE]
    assert course.artifacts[0].height == 0.4
    assert course.artifacts[1].length == 0.6
    assert course.artifacts[2].length == 0.2
    assert course.goal_x == 11.5


def test_parse_course_defaults_goal_when_absent():
    course = parse_course_text("hurdle 4.0\n")
    assert course.goal_x == pytest.approx(4.1 + 3.0)


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("ramp 3.2\n", 1, "unknown artifact kind"),
        ("block\n", 1, "needs a start"),
        ("block abc\n", 1, "not a number"),
        ("block 3.2 depth=1\n", 1, "unknown override"),
        ("block 3.2 height\n", 1, "key=value"),
        ("goal 5\nblock 3.2\ngoal 6\n", 3, "duplicate goal"),
        ("goal one\n", 1, "not a number"),
        ("goal 5 6\n", 1, "exactly one"),
        ("block 3.2\n\nblock 3.3\n", 3, None),  # overlap reported with file name
    ],
)
def test_parse_course_errors_carry_position(text, lineno, fragment):
    with pytest.raises(CourseError) as exc:
        parse_course_text(text, name="bad.course")
    msg = str(exc.value)
    assert msg.startswith("bad.course")
    if fragment is not None:
        assert f":{lineno}:" in msg
        assert fragment in msg


@pytest.mark.parametrize("text, key, size", [
    ("hurdle 3.2 width=0.1 length=0.5\n", "length", "length"),
    ("hurdle 3.2 length=0.5 width=0.1\n", "width", "length"),
    ("gap 3.2 width=0.5 width=0.6\n", "width", "length"),
    ("block 3.2 height=0.1 height=0.3\n", "height", "height"),
])
def test_parse_course_rejects_a_repeated_override(text, key, size):
    # the last repeat would silently win; width is an alias for length
    with pytest.raises(CourseError) as exc:
        parse_course_text(f"goal 9\n{text}", name="bad.course")
    assert str(exc.value).startswith(f"bad.course:2: {key}= sets the {size}")
    first, _, _ = text.rpartition(" ")
    assert parse_course_text(first + "\n").artifacts[0].kind == text.split()[0]


@pytest.mark.parametrize("text, fragment", [
    ("goal nan\n", "goal nan"),
    ("goal inf\n", "goal inf"),
    ("hurdle nan\n", "start nan"),
    ("hurdle 1e309\n", "start inf"),
    ("hurdle 3.2 height=nan\n", "height nan"),
    ("hurdle 3.2 length=inf\n", "length inf"),
])
def test_parse_course_rejects_non_finite_numbers(text, fragment):
    with pytest.raises(CourseError, match=fragment) as exc:
        parse_course_text(text, name="bad.course")
    assert str(exc.value).startswith("bad.course")


@pytest.mark.parametrize("text, value", [
    ("block 3.2 height=-0.5\n", "block height -0.5"),
    ("hurdle 3.2 height=0\n", "hurdle height 0.0"),
    ("hurdle 3.2 height=1e300\n", "hurdle height 1e+300"),
])
def test_parse_course_rejects_heights_no_jump_clears(text, value):
    # a non-positive block is a pit and a non-positive hurdle is nothing;
    # above the apex no jump clears it, and 1e300 overflows the normalizer
    with pytest.raises(CourseError) as exc:
        parse_course_text(text, name="bad.course")
    msg = str(exc.value)
    assert msg.startswith("bad.course")
    assert value in msg and f"(0, {JUMP_APEX}]" in msg


def test_artifact_heights_up_to_the_jump_apex_load():
    assert JUMP_APEX == JUMP_GAIN ** 2 / (2.0 * GRAVITY)
    for kind in (BLOCK, HURDLE):
        course = parse_course_text(f"{kind} 3.2 height={JUMP_APEX!r}\n")
        assert course.artifacts[0].height == JUMP_APEX
        with pytest.raises(CourseError, match="outside"):
            parse_course_text(f"{kind} 3.2 height={float(np.nextafter(JUMP_APEX, 2.0))!r}\n")
        assert parse_course_text(f"{kind} 3.2 height=1e-9\n").artifacts[0].height == 1e-9
    # a gap's height moves no physics and is not checked
    assert parse_course_text("gap 3.2 height=-1\n").artifacts[0].height == -1.0


def test_a_gap_is_observed_at_height_zero_on_both_paths():
    course = parse_course_text("gap 3.2 height=1e300\n")
    env = TerrainEnv(course)
    ahead, past = env.reset_from(2.5), env.reset_from(4.5)
    batch = RunnerBatch([course, course], [ahead, past])
    rows = [observe(course, ahead), observe(course, past)]
    for scalar, batched in zip(rows, batch.observe()):
        assert scalar.tobytes() == batched.tobytes()
    assert rows[0][6] == 0.0 and rows[0][7 + KIND_ONE_HOT[GAP]] == 1.0
    norm = RunningNormalizer(OBS_DIM)
    for row in rows:
        assert np.isfinite(norm.update(row)).all()
    assert all(np.isfinite(arr).all() for arr in norm.state_arrays().values())


def test_load_course_missing_file(tmp_path):
    with pytest.raises(CourseError, match="cannot read"):
        from gaitbridge.terrainsim import load_course
        load_course(tmp_path / "nope.course")


def test_load_course_reads_file(tmp_path):
    from gaitbridge.terrainsim import load_course
    path = tmp_path / "one.course"
    path.write_text("block 3.2\ngoal 7.0\n", encoding="utf-8")
    course = load_course(path)
    assert course.goal_x == 7.0
    assert course.artifacts[0].kind == BLOCK


# ---- runner batches against the scalar runner -------------------------------------


def bits(*values):
    """Float64 bytes of the values: equal bits, not just equal numbers."""
    return np.array(values, dtype=np.float64).tobytes()


def state_bits(state):
    fields = dataclasses.astuple(state)
    return (bits(*(f for f in fields if isinstance(f, float))),
            [f for f in fields if not isinstance(f, float)])


@st.composite
def courses(draw):
    """1-3 artifacts of any kind, any geometry, some of them adjacent.

    Block and hurdle heights are positive, as a course requires; a gap's
    height moves no physics, is not checked, and may be 0."""
    x = SPAWN_MAX_X + draw(st.floats(0.0, 1.5))
    artifacts = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(KINDS))
        art = make_artifact(kind, x,
                            draw(st.floats(0.0, 0.6, exclude_min=kind != GAP)),
                            draw(st.floats(0.05, 1.0)))
        artifacts.append(art)
        x = art.end + draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.5))
    return make_course(artifacts, artifacts[-1].end + draw(st.floats(0.0, 1.0)))


@st.composite
def spawns(draw, course):
    """A standard spawn, or one at or short of an artifact's start, on its
    end or anywhere, often at full speed or crouch, some of them a few ticks
    short of the timeout."""
    env = TerrainEnv(course)
    art = draw(st.sampled_from(course.artifacts))
    x = draw(st.sampled_from([None, art.start, art.end,
                              art.start - DETECT_RANGE])
             | st.floats(0.0, 1.2).map(lambda back: art.start - back)
             | st.floats(0.0, course.goal_x))
    state = None
    if x is not None:
        try:
            state = env.reset_from(
                x, v=draw(st.sampled_from([0.0, V_MAX]) | st.floats(0.0, V_MAX)),
                c=draw(st.just(1.0) | st.floats(0.0, 1.0)))
        except CourseError:  # over a gap
            pass
    if state is None:
        state = env.reset(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    state.steps = draw(st.sampled_from([0, MAX_STEPS - 5]))
    return state


def action_script(seed, ticks):
    """(ticks, 2) actions: mostly full drive, crouch commands from
    {-1, -0.5, 0, 1} (jump triggers at a2 <= -0.5), the rest out of range."""
    rng = np.random.default_rng(seed)
    a1 = np.where(rng.random(ticks) < 0.7, 1.0, rng.uniform(-3.0, 3.0, ticks))
    a2 = np.where(rng.random(ticks) < 0.5,
                  rng.choice([-1.0, -0.5, 0.0, 1.0], ticks),
                  rng.uniform(-3.0, 3.0, ticks))
    return np.stack([a1, a2], axis=1)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_batch_step_observe_and_detect_match_the_scalar_runner(data):
    # finished lanes are compacted away each tick, as evaluation does
    n = data.draw(st.integers(1, 5))
    lane_courses = [data.draw(courses()) for _ in range(n)]
    states = [data.draw(spawns(course)) for course in lane_courses]
    ticks = data.draw(st.integers(1, 60))
    script = np.stack([action_script(data.draw(st.integers(0, 2**32 - 1)),
                                     ticks) for _ in range(n)], axis=1)
    envs = [TerrainEnv(course) for course in lane_courses]
    batch = RunnerBatch(lane_courses, [dataclasses.replace(s) for s in states])
    live = list(range(n))  # the scalar lane of each batch row
    for act in script:
        obs = batch.observe()
        hit, index = batch.detect()
        for row, i in enumerate(live):
            course, state = lane_courses[i], states[i]
            assert obs[row].tobytes() == observe(course, state).tobytes()
            ahead = next_artifact(course, state.x)
            assert hit[row] == detects(ahead, state)
            assert index[row] == (len(course.artifacts) if ahead is None
                                  else course.artifacts.index(ahead))
        done = batch.step(act[live])
        for row, i in enumerate(live):
            _, want_done = envs[i].step(states[i], act[i])
            assert done[row] == want_done
            assert state_bits(batch.state(row)) == state_bits(states[i])
        keep = ~done
        batch.compact(keep)
        live = [i for i, kept in zip(live, keep) if kept]
        assert len(batch) == len(live)
        for row, i in enumerate(live):
            assert state_bits(batch.state(row)) == state_bits(states[i])
        if not live:
            break


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_batch_rewards_match_the_scalar_runner(data):
    # the reward a training tail folds on the lane path, bit for bit the one
    # TerrainEnv.step returns, on the lanes of the batch-against-scalar test
    n = data.draw(st.integers(1, 5))
    lane_courses = [data.draw(courses()) for _ in range(n)]
    states = [data.draw(spawns(course)) for course in lane_courses]
    ticks = data.draw(st.integers(1, 60))
    script = np.stack([action_script(data.draw(st.integers(0, 2**32 - 1)),
                                     ticks) for _ in range(n)], axis=1)
    envs = [TerrainEnv(course) for course in lane_courses]
    batch = RunnerBatch(lane_courses, [dataclasses.replace(s) for s in states])
    live = list(range(n))
    for act in script:
        done = batch.step(act[live])
        rewards = batch.rewards()
        want = [envs[i].step(states[i], act[i]) for i in live]
        assert bits(*rewards) == bits(*(r for r, _ in want))
        assert done.tolist() == [d for _, d in want]
        batch.compact(~done)
        live = [i for i, kept in zip(live, ~done) if kept]
        if not live:
            break


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_x_never_decreases_on_either_path(data):
    # distance_fraction reads x as the furthest the runner got; each path
    # runs up to 300 ticks of random actions
    n = data.draw(st.integers(1, 4))
    lane_courses = [data.draw(courses()) for _ in range(n)]
    states = [data.draw(spawns(course)) for course in lane_courses]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    batch = RunnerBatch(lane_courses, [dataclasses.replace(s) for s in states])
    for course, state in zip(lane_courses, states):
        env = TerrainEnv(course)
        for _ in range(300):
            x = state.x
            _, done = env.step(state, rng.uniform(-1.0, 1.0, 2))
            assert state.x >= x
            if done:
                break
    for _ in range(300):
        x = batch.x
        done = batch.step(rng.uniform(-1.0, 1.0, (len(batch), 2)))
        assert (batch.x >= x).all()
        batch.compact(~done)
        if not len(batch):
            break


def test_batch_step_on_a_finished_lane_raises():
    course = single_artifact_course(HURDLE)
    batch = RunnerBatch([course, course],
                        [TerrainEnv(course).reset_from(x) for x in (0.5, 1.0)])
    batch.steps[1] = MAX_STEPS
    done = batch.step(np.zeros((2, 2)))
    assert done.tolist() == [False, True]
    with pytest.raises(RuntimeError, match="finished lane"):
        batch.step(np.zeros((2, 2)))
