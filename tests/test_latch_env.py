"""Latch world tests: determinism, grasp/slip mechanics, costs, goal semantics."""

import json
import math

import numpy as np
import pytest

from recovery_forge import latch_env
from recovery_forge.errors import RecoveryForgeError
from recovery_forge.harness_cli import main
from recovery_forge.latch_env import LatchEnv, NominalSkill, SkillId, WorldState


def make_env(seed=0):
    return LatchEnv(seed=seed)


ZERO_NOISE = 0.0
REF_NOISE = 0.02


# -- reset / observe ---------------------------------------------------------------


def test_zero_sigma_observation_is_truth():
    env = make_env()
    state, obs = env.reset(seed=5, sigma=ZERO_NOISE)
    np.testing.assert_allclose(obs, state.handle_pos_true)


def test_observation_error_std_matches_sigma():
    env = make_env()
    errors = []
    for ep in range(10000):
        state, obs = env.reset(seed=ep, sigma=REF_NOISE)
        errors.append(obs - np.asarray(state.handle_pos_true))
    std = np.asarray(errors).std()
    assert abs(std - 0.02) < 0.05 * 0.02


def test_reset_deterministic_under_seed():
    env = make_env()
    s1, o1 = env.reset(seed=77, sigma=REF_NOISE)
    s2, o2 = env.reset(seed=77, sigma=REF_NOISE)
    assert s1 == s2
    np.testing.assert_array_equal(o1, o2)


# -- nominal chain ---------------------------------------------------------------


def test_zero_noise_chain_succeeds_everywhere():
    env = make_env()
    for ep in range(500):
        record = env.run_chain(ZERO_NOISE, seed=ep)
        assert record.success


def test_zero_noise_cost_stays_near_the_nominal_path_length():
    env = make_env()
    nominal = sum(latch_env.NOMINAL_COSTS)
    for ep in range(20):
        record = env.run_chain(ZERO_NOISE, seed=ep)
        # start-pose jitter moves the reach leg; settle noise adds a little more
        assert abs(sum(record.costs) - nominal) < 0.15


def test_cost_additivity_against_geometric_recomputation():
    env, reference = make_env(), make_env()
    state, obs = env.reset(seed=3, sigma=REF_NOISE)
    reference.reset(seed=3, sigma=REF_NOISE)
    for skill in env.nominal_skills():
        start = state.ee_pos
        *end, ref_cost, path = _reference_execute(reference, state, skill, obs, set())
        state, cost = env.execute_skill(state, skill, obs)
        assert state == WorldState(*end, state.handle_pos_true) and cost == ref_cost
        pts = [tuple(start)] + list(path)
        length = sum(math.dist(a, b) for a, b in zip(pts, pts[1:]))
        assert cost == pytest.approx(length, abs=1e-12)


def test_nominal_skills_are_one_tuple_built_once():
    skills = make_env().nominal_skills()
    assert skills is make_env(seed=1).nominal_skills()
    assert tuple(skill.id for skill in skills) == (SkillId.REACH, SkillId.ROTATE, SkillId.PULL)


def test_run_chain_plans_every_skill_on_the_reset_estimate():
    env = make_env()
    for ep in range(20):
        record = env.run_chain(REF_NOISE, seed=ep)
        state, obs = env.reset(seed=ep, sigma=REF_NOISE)
        np.testing.assert_array_equal(record.estimate, obs)
        states = [env.state_vector(state)]
        for skill in env.nominal_skills()[: len(record.costs)]:
            state, _ = env.execute_skill(state, skill, obs)
            states.append(env.state_vector(state))
        assert [s.tolist() for s in record.states] == [s.tolist() for s in states]


def test_chain_bit_identical_under_seed():
    env = make_env()
    a = env.run_chain(REF_NOISE, seed=11)
    b = env.run_chain(REF_NOISE, seed=11)
    for sa, sb in zip(a.states, b.states):
        np.testing.assert_array_equal(sa, sb)
    assert a.costs == b.costs and a.success == b.success


def test_open_loop_success_rate_in_band():
    env = make_env()
    successes = sum(
        env.run_chain(REF_NOISE, seed=50_000 + ep).success for ep in range(1000)
    )
    assert 0.30 < successes / 1000 < 0.90


def test_door_never_closes_and_angle_needs_grasp():
    env = make_env()
    for ep in range(50):
        record = env.run_chain(REF_NOISE, seed=ep)
        doors = [sv[6] for sv in record.states]
        assert all(b >= a for a, b in zip(doors, doors[1:]))
        for prev, cur in zip(record.states, record.states[1:]):
            if cur[5] != prev[5]:  # handle angle changed during that skill
                assert prev[2] == 1.0 or cur[2] == 1.0


# -- grasp / slip windows -----------------------------------------------------------


def _run_with_fake_observation(env, offset):
    """Execute the chain against an observation displaced by a known offset."""
    state, _ = env.reset(seed=123, sigma=ZERO_NOISE)
    obs = np.asarray(state.handle_pos_true) + np.asarray(offset)
    for skill in env.nominal_skills():
        state, _ = env.execute_skill(state, skill, obs)
    return state


def test_observation_offset_beyond_grasp_radius_misses(monkeypatch):
    monkeypatch.setattr(latch_env, "SETTLE_SIGMA", 0.0)
    env = make_env()
    state = _run_with_fake_observation(env, (0.05, 0.0))
    assert state.gripper_closed and state.grasp_offset is None
    assert state.door_open == 0.0


def test_offset_in_the_slip_window_grasps_then_slips(monkeypatch):
    monkeypatch.setattr(latch_env, "SETTLE_SIGMA", 0.0)
    env = make_env()
    state = _run_with_fake_observation(env, (0.027, 0.0))
    # grasp succeeded (0.027 < 0.03) but the grip slipped during rotation
    assert state.grasp_offset is None
    assert state.door_open == 0.0
    assert 0.0 < state.handle_angle <= latch_env.ANGLE_MAX


def test_clean_offset_opens_the_door(monkeypatch):
    monkeypatch.setattr(latch_env, "SETTLE_SIGMA", 0.0)
    env = make_env()
    state = _run_with_fake_observation(env, (0.01, 0.0))
    assert state.handle_angle == latch_env.ANGLE_MAX
    assert state.door_open == latch_env.DOOR_MAX


# -- goal predicate ---------------------------------------------------------------


def test_goal_predicate_boundaries():
    env = make_env()
    state, _ = env.reset(seed=0, sigma=ZERO_NOISE)
    assert env.goal_predicate(state) == 0
    opened = WorldState(
        state.ee_pos, True, None, latch_env.ANGLE_MAX, latch_env.DOOR_MAX, state.handle_pos_true
    )
    assert env.goal_predicate(opened) == 1
    threshold = WorldState(
        state.ee_pos, True, None, latch_env.ANGLE_MAX, latch_env.GOAL_THRESHOLD,
        state.handle_pos_true,
    )
    assert env.goal_predicate(threshold) == 1  # closed predicate at the boundary


# -- state vector round trip --------------------------------------------------------


def test_set_state_round_trips_the_vector():
    env = make_env()
    state, _ = env.reset(seed=9, sigma=ZERO_NOISE)
    vec = env.state_vector(state)
    rebuilt = env.set_state(vec)
    np.testing.assert_allclose(env.state_vector(rebuilt), vec, atol=1e-12)


def test_set_state_reconstructs_holding_only_near_the_grip():
    env = make_env()
    state, _ = env.reset(seed=9, sigma=ZERO_NOISE)
    hx, hy = state.handle_pos_true
    held = env.set_state(np.array([hx + 0.01, hy, 1.0, 0.01, 0.0, 0.0, 0.0]))
    assert held.grasp_offset is not None
    far = env.set_state(np.array([hx + 0.1, hy, 1.0, 0.1, 0.0, 0.0, 0.0]))
    assert far.grasp_offset is None and far.gripper_closed


def test_mls_vector_uses_the_estimate_for_the_offset_only():
    env = make_env()
    state, _ = env.reset(seed=2, sigma=ZERO_NOISE)
    fake_obs = np.asarray(state.handle_pos_true) + np.array([0.05, -0.02])
    mls = env.mls_state_vector(state, fake_obs)
    true_vec = env.state_vector(state)
    np.testing.assert_allclose(mls[:3], true_vec[:3])
    np.testing.assert_allclose(mls[5:], true_vec[5:])
    np.testing.assert_allclose(mls[3:5], true_vec[3:5] - np.array([0.05, -0.02]))


# -- recovery parameter execution -----------------------------------------------------


# -- execute_from -------------------------------------------------------------------


def _reference_ends(env, states, actions, hits=None) -> np.ndarray:
    """What ``execute_from`` computes: the numpy-scalar reference run per row,
    planned on the true handle position."""
    ends = []
    for state, action in zip(states, actions):
        obs = np.asarray(state.handle_pos_true, dtype=float)
        *end, _, _ = _reference_execute(env, state, action, obs, set() if hits is None else hits)
        ends.append(env.state_vector(WorldState(*end, state.handle_pos_true)))
    return np.array(ends)


def _assert_execute_from_equals_the_reference(states, actions):
    env, reference = make_env(seed=9), make_env(seed=9)
    ends = env.execute_from(states, actions)
    assert ends.shape == (len(states), 7)
    assert np.array_equal(ends, _reference_ends(reference, states, actions))
    assert env.rng_state() == reference.rng_state()


def test_execute_from_runs_nominal_skills_like_the_reference():
    # every state of noisy chain rollouts, so grasps, slips and misses all occur
    env = make_env()
    states = []
    for ep in range(40):
        states += [env.set_state(v) for v in env.run_chain(REF_NOISE, seed=ep).states]
    skills = env.nominal_skills()
    actions = [skills[n % len(skills)] for n in range(len(states))]
    _assert_execute_from_equals_the_reference(states, actions)


def test_execute_from_runs_thetas_from_one_repeated_state_like_the_reference():
    env = make_env()
    state, _ = env.reset(seed=3, sigma=REF_NOISE)
    bounds = latch_env.THETA_BOUNDS
    thetas = np.random.default_rng(4).uniform(bounds[:, 0], bounds[:, 1], size=(60, 9))
    _assert_execute_from_equals_the_reference([state] * len(thetas), thetas)


def test_theta_validation():
    env = make_env()
    state, obs = env.reset(seed=0, sigma=ZERO_NOISE)
    with pytest.raises(RecoveryForgeError, match=r"theta must have shape \(9,\), got \(5,\)"):
        env.execute_skill(state, np.zeros(5), obs)
    bad = np.zeros(9)
    bad[0] = 99.0
    with pytest.raises(RecoveryForgeError, match="theta outside the action-parameter bounds"):
        env.execute_skill(state, bad, obs)


def test_theta_check_keeps_its_error_order_and_slack():
    env = make_env()
    state, obs = env.reset(seed=0, sigma=ZERO_NOISE)
    bounds = latch_env.THETA_BOUNDS
    for bad_value in (np.nan, np.inf, -np.inf):
        bad = np.zeros(9)
        bad[1] = 99.0  # out of bounds too: the non-finite check comes first
        bad[4] = bad_value
        with pytest.raises(RecoveryForgeError, match="non-finite"):
            env.execute_skill(state, bad, obs)
    with pytest.raises(RecoveryForgeError, match="outside the action-parameter bounds"):
        env.execute_skill(state, np.where(np.arange(9) == 2, 1.0 + 2e-9, 0.0), obs)
    with pytest.raises(RecoveryForgeError, match="must have shape"):
        env.execute_skill(state, np.full(10, np.nan), obs)
    # within the 1e-9 slack of the bounds is accepted
    env.execute_skill(state, bounds[:, 1] + 5e-10, obs)
    env.execute_skill(state, bounds[:, 0] - 5e-10, obs)


def test_regrasp_theta_recovers_a_missed_grasp(monkeypatch):
    monkeypatch.setattr(latch_env, "SETTLE_SIGMA", 0.0)
    env = make_env()
    state, _ = env.reset(seed=31, sigma=ZERO_NOISE)
    obs = np.asarray(state.handle_pos_true) + np.array([0.05, 0.0])
    state, _ = env.execute_skill(state, env.nominal_skills()[0], obs)
    assert state.grasp_offset is None  # missed
    # open, move onto the true handle, close
    hx, hy = state.handle_pos_true
    dx, dy = hx - state.ee_pos[0], hy - state.ee_pos[1]
    theta = np.array([dx, dy, 0.0, dx, dy, 1.0, dx, dy, 1.0])
    state, _ = env.execute_skill(state, theta, obs)
    assert state.grasp_offset is not None
    true_obs = np.asarray(state.handle_pos_true)
    for skill in env.nominal_skills()[1:]:
        state, _ = env.execute_skill(state, skill, true_obs)
    assert state.door_open == latch_env.DOOR_MAX


def test_halving_estimator_shrinks_observation_error():
    env = make_env()
    errs_first, errs_last = [], []
    for ep in range(300):
        sigma = 0.02
        state, obs = env.reset(seed=ep, sigma=sigma)
        handle = np.asarray(state.handle_pos_true)
        errs_first.append(np.linalg.norm(obs - handle))
        for skill in env.nominal_skills():
            state, _ = env.execute_skill(state, skill, obs)
            sigma, obs = env.halving_step(state, sigma)
            if env.goal_predicate(state):
                break
        errs_last.append(np.linalg.norm(obs - handle))
    assert np.mean(errs_last) < 0.5 * np.mean(errs_first)


# -- the fixed world: its constants were once config settings -------------------------

# Each world constant and the value it defaulted to as a setting. The outputs
# of every stage depend on these values, so a constant that moves is a change
# of the world, not a refactor.
FORMER_WORLD_SETTINGS = {
    "world_box": 0.5,
    "handle_box": 0.1,
    "start_offset": (-0.15, 0.12),
    "start_jitter": 0.04,
    "grasp_radius": 0.03,
    "slip_radius": 0.024,
    "settle_sigma": 0.005,
    "reach_accuracy_radius": 0.25,
    "reach_accuracy_slope": 1.0,
    "lever_length": 0.06,
    "rotate_plan_dy": -0.075,
    "pull_plan_dx": -0.10,
    "pull_min_displacement": 0.08,
    "angle_max": 1.0,
    "door_max": 1.0,
    "goal_threshold": 0.5,
    "detent_fraction": 0.25,
    "slip_jam_range": (0.3, 0.9),
    "theta_displacement_bound": 0.3,
}


@pytest.mark.parametrize("name", FORMER_WORLD_SETTINGS)
def test_each_world_constant_keeps_the_value_it_had_as_a_setting(name):
    assert getattr(latch_env, name.upper()) == FORMER_WORLD_SETTINGS[name]


@pytest.mark.parametrize("name", FORMER_WORLD_SETTINGS)
def test_a_world_constant_is_not_a_config_field(tmp_path, capsys, name):
    value = FORMER_WORLD_SETTINGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "runs"), name: value}))
    assert main(["synth-alloc", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: unknown config fields: [{name!r}]\n"
    assert not (tmp_path / "runs").exists()


# -- the rollout loop: equality with the numpy-scalar reference ----------------------


def _reference_waypoints(state, action, observation):
    """The waypoints ((x, y), gripper bit) of a nominal skill or a recovery
    theta, with theta indexed per element as numpy scalars."""
    ex, ey = state.ee_pos
    if isinstance(action, NominalSkill):
        ox, oy = float(observation[0]), float(observation[1])
        if action.id is SkillId.REACH:
            return [((ox, oy), 0.0), ((ox, oy), 1.0)]
        if action.id is SkillId.ROTATE:
            return [((ex, ey + latch_env.ROTATE_PLAN_DY), 1.0)]
        return [((ex + latch_env.PULL_PLAN_DX, ey), 1.0)]
    theta = np.asarray(action, dtype=float)
    return [
        ((ex + theta[3 * i], ey + theta[3 * i + 1]), float(theta[3 * i + 2])) for i in range(3)
    ]


def _reference_execute(env, state, action, observation, hits, slips=None):
    """``execute_skill`` computed per waypoint on numpy scalars: each waypoint
    draws its own ``standard_normal(5)`` (settle x, y, drift x, y, slip), the
    pairs scaled as arrays, clamps through ``_clamp``. Returns the end's
    world-state fields, the cost and the realized path, records in ``hits``
    which mechanics fired and appends each slip fraction to ``slips``."""
    from recovery_forge.latch_env import _clamp

    ee, closed, grasp = state.ee_pos, state.gripper_closed, state.grasp_offset
    angle, door, handle = state.handle_angle, state.door_open, state.handle_pos_true
    cost = travelled = 0.0
    path = []
    for target, bit in _reference_waypoints(state, action, observation):
        travelled += math.hypot(target[0] - ee[0], target[1] - ee[1])
        z = env._rng.standard_normal(5)
        settle = z[:2] * latch_env.SETTLE_SIGMA
        realized = [target[0] + settle[0], target[1] + settle[1]]
        if bit >= 0.5 and not closed:
            extra = latch_env.REACH_ACCURACY_SLOPE * max(
                0.0, travelled - latch_env.REACH_ACCURACY_RADIUS
            )
            if extra > 0.0:
                hits.add("drift")
                drift = z[2:4] * extra
                realized[0] += drift[0]
                realized[1] += drift[1]
        realized = (
            _clamp(realized[0], -latch_env.WORLD_BOX, latch_env.WORLD_BOX),
            _clamp(realized[1], -latch_env.WORLD_BOX, latch_env.WORLD_BOX),
        )
        seg = (realized[0] - ee[0], realized[1] - ee[1])
        seg_len = math.hypot(*seg)
        cost += seg_len
        if grasp is not None and seg_len > 0.0:
            delta_angle = (-seg[1] / latch_env.LEVER_LENGTH) * latch_env.ANGLE_MAX
            if math.hypot(*grasp) > latch_env.SLIP_RADIUS:
                hits.add("slip")
                lo, hi = latch_env.SLIP_JAM_RANGE
                frac = lo + (hi - lo) * 0.5 * math.erfc(-z[4] / math.sqrt(2.0))
                if slips is not None:
                    slips.append(frac)
                angle = env._snap(
                    _clamp(angle + frac * max(delta_angle, 0.0), 0.0, latch_env.ANGLE_MAX)
                )
                grasp = None
            else:
                angle = env._snap(_clamp(angle + delta_angle, 0.0, latch_env.ANGLE_MAX))
                if (
                    angle >= latch_env.ANGLE_MAX - 1e-12
                    and -seg[0] >= latch_env.PULL_MIN_DISPLACEMENT
                    and door < latch_env.DOOR_MAX
                ):
                    hits.add("door")
                    door = latch_env.DOOR_MAX
        ee = realized
        path.append(ee)
        if bit >= 0.5 and not closed:
            grip = env._grip_point(handle, angle)
            off = (ee[0] - grip[0], ee[1] - grip[1])
            grasp = off if math.hypot(*off) <= latch_env.GRASP_RADIUS else None
            closed = True
        elif bit < 0.5 and closed:
            closed = False
            grasp = None
    return ee, closed, grasp, angle, door, cost, path


def _theta_start_vectors():
    """Start states: free, held with a clean grip, held with the grip in the
    slip window, and held at full rotation (a leftward pull opens the door)."""
    free = [0.1, 0.05, 0.0, -0.12, 0.1, 0.0, 0.0]
    clean = [0.0, 0.0, 1.0, 0.005, 0.0, 0.0, 0.0]
    slipping = [0.0, 0.0, 1.0, 0.027, 0.0, 0.0, 0.0]
    rotated = [0.0, 0.0, 1.0, 0.0, -0.06 + 0.004, 1.0, 0.0]
    return [np.array(v) for v in (free, clean, slipping, rotated)]


def _trial_theta(rng, kind):
    """A random theta of one of three kinds: 0 free, 1 a drag of the held
    handle with the gripper kept closed, 2 a leftward pull with it closed."""
    bounds = latch_env.THETA_BOUNDS
    theta = rng.uniform(bounds[:, 0], bounds[:, 1])
    if kind == 1:
        theta[2::3] = 1.0
        theta[0::3] *= 0.3
        theta[1::3] = -np.abs(theta[1::3]) * 0.3
    elif kind == 2:
        theta[0::3] = -rng.uniform(0.08, 0.3, size=3)
        theta[1::3] *= 0.05
        theta[2::3] = 1.0
    return theta


def _nominal_start_vectors():
    """Start states for the nominal skills: the theta starts, and free poses
    far enough from the handle that Reach's grasp draws drift normals."""
    far = [[0.4, 0.3, 0.0, 0.35, 0.3, 0.0, 0.0], [-0.3, -0.2, 0.0, -0.3, -0.25, 0.0, 0.0]]
    return _theta_start_vectors() + [np.array(v) for v in far]


def test_execute_skill_equals_the_numpy_scalar_reference():
    # Noisy observations, so that grasps land, miss and fall in the slip window.
    env, reference = make_env(seed=3), make_env(seed=3)
    rng = np.random.default_rng(40)
    hits = {"theta": set(), **{skill.id: set() for skill in env.nominal_skills()}}
    slips = []

    def check(state, action, obs, kind):
        end, cost = env.execute_skill(state, action, obs)
        *ref_end, ref_cost, _ = _reference_execute(
            reference, state, action, obs, hits[kind], slips
        )
        assert end == WorldState(*ref_end, state.handle_pos_true) and cost == ref_cost
        assert env.rng_state() == reference.rng_state()

    for start in _theta_start_vectors():
        state = env.set_state(start)
        obs = np.asarray(state.handle_pos_true, dtype=float)
        for trial in range(150):
            check(state, _trial_theta(rng, trial % 3), obs, "theta")
    for start in _nominal_start_vectors():
        state = env.set_state(start)
        for trial in range(60):
            obs = np.asarray(state.handle_pos_true) + rng.normal(0.0, 0.02, 2)
            for skill in env.nominal_skills():
                check(state, skill, obs, skill.id)
    assert hits["theta"] == {"drift", "slip", "door"}
    assert hits[SkillId.REACH] >= {"drift"}
    assert hits[SkillId.ROTATE] >= {"slip"}
    assert hits[SkillId.PULL] >= {"door"}
    # The slip fractions cover SLIP_JAM_RANGE: each sixth of it holds a share
    # of them near 1/6, as a uniform draw's would.
    lo, hi = latch_env.SLIP_JAM_RANGE
    assert len(slips) > 200 and lo <= min(slips) and max(slips) <= hi
    counts, _ = np.histogram(slips, bins=6, range=(lo, hi))
    assert counts.min() > 0.5 * len(slips) / 6 and counts.max() < 1.5 * len(slips) / 6


# -- the draw schedule: five normals per waypoint ---------------------------------


def test_each_waypoint_moves_the_generator_by_exactly_five_normals():
    # Thetas with drift, slips and door openings, and every nominal skill: each
    # call leaves the generator where 5 normals per waypoint leave a twin.
    env, reference = make_env(seed=9), make_env(seed=9)
    twin = np.random.default_rng(9)
    rng = np.random.default_rng(42)
    hits = {"theta": set(), **{skill.id: set() for skill in env.nominal_skills()}}
    for n, start in enumerate(_nominal_start_vectors() * 20):
        state = env.set_state(start)
        obs = np.asarray(state.handle_pos_true, dtype=float)
        actions = [("theta", _trial_theta(rng, n % 3))]
        actions += [(skill.id, skill) for skill in env.nominal_skills()]
        for kind, action in actions:
            *_, path = _reference_execute(reference, state, action, obs, hits[kind])
            env.execute_skill(state, action, obs)
            twin.standard_normal(5 * len(path))
            assert env.rng_state() == twin.bit_generator.state
    assert hits["theta"] == {"drift", "slip", "door"}
    assert hits[SkillId.REACH] >= {"drift"}
    assert hits[SkillId.ROTATE] >= {"slip"}
    assert hits[SkillId.PULL] >= {"door"}


def _one_row_ends(states, actions):
    """Each row run alone through ``execute_skill``, planned on the true
    handle position: the end vectors and the generator state after each."""
    env = make_env(seed=9)
    ends, rng_states = [], []
    for state, action in zip(states, actions):
        end, _ = env.execute_skill(state, action, np.asarray(state.handle_pos_true))
        ends.append(env.state_vector(end))
        rng_states.append(env.rng_state())
    return np.array(ends), rng_states


def test_n_one_row_calls_equal_one_n_row_execute_from():
    # Rows pair every start state with each of the three theta kinds or each
    # nominal skill, so drift, slips and door openings occur; one execute_from
    # of the first N rows equals N one-row calls, ends and generator state,
    # for every N.
    env = make_env()
    starts = [env.set_state(v) for v in _nominal_start_vectors()]
    n_max = 50
    states = [starts[n % len(starts)] for n in range(n_max)]
    kinds = [n // len(starts) % 3 for n in range(n_max)]
    rng = np.random.default_rng(41)
    skills = env.nominal_skills()
    for actions in (
        np.array([_trial_theta(rng, kind) for kind in kinds]),
        [skills[kind] for kind in kinds],
    ):
        ends, rng_states = _one_row_ends(states, actions)
        hits: set[str] = set()
        _reference_ends(make_env(seed=9), states, actions, hits)
        assert hits == {"drift", "slip", "door"}
        for n in range(1, n_max + 1):
            batched = make_env(seed=9)
            assert np.array_equal(batched.execute_from(states[:n], actions[:n]), ends[:n])
            assert batched.rng_state() == rng_states[n - 1]


def _first_row_error(states, thetas) -> str:
    """The error of the per-row ``execute_skill`` loop at its first bad row."""
    env = make_env()
    for state, theta in zip(states, thetas):
        try:
            env.execute_skill(state, theta, np.asarray(state.handle_pos_true))
        except RecoveryForgeError as exc:
            return str(exc)
    raise AssertionError("no row was rejected")


def test_a_rejected_theta_matrix_raises_the_first_bad_rows_error_and_draws_nothing():
    env = make_env()
    state, _ = env.reset(seed=0, sigma=ZERO_NOISE)
    before = env.rng_state()

    def with_bad(*cells):
        thetas = np.zeros((6, 9))
        for row, column, value in cells:
            thetas[row, column] = value
        return thetas

    cases = [
        (np.zeros((6, 5)), r"theta must have shape \(9,\), got \(5,\)"),
        (np.full((6, 10), np.nan), "must have shape"),
        (with_bad((2, 0, 99.0), (4, 1, np.nan)), "outside the action-parameter bounds"),
        (with_bad((2, 3, np.inf), (4, 0, 99.0)), "non-finite"),
        (with_bad((3, 1, 99.0), (3, 4, -np.inf)), "non-finite"),
        (with_bad((5, 2, 1.0 + 2e-9)), "outside the action-parameter bounds"),
    ]
    for thetas, message in cases:
        states = [state] * len(thetas)
        with pytest.raises(RecoveryForgeError, match=message) as raised:
            env.execute_from(states, thetas)
        assert str(raised.value) == _first_row_error(states, thetas)
        assert env.rng_state() == before
    # within the 1e-9 slack of the bounds is accepted
    bounds = latch_env.THETA_BOUNDS
    env.execute_from([state] * 2, np.array([bounds[:, 1] + 5e-10, bounds[:, 0] - 5e-10]))
