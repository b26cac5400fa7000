"""Deterministic, seedable 2-D latch world.

A point end-effector must grasp a spring-latched handle, rotate it to the end
of its travel, and pull the door open, while the handle position is only known
through a noisy estimate. Geometry is kinematic: skills emit waypoints, the
end-effector tracks them with a small seeded settle error, and grasp / rotation
/ door effects are resolved per segment.

Mechanics summary:
  - closing the gripper within ``grasp_radius`` of the current grip point
    grasps the handle; the frozen grip offset decides later slips
  - while holding, end-effector motion drags the handle lever: displacement
    along the rotation direction converts to handle angle (spring detents snap
    the angle to either end of travel); a grip worse than ``slip_radius``
    slips partway through the drag, leaving the handle jammed
  - the door opens when the handle is fully rotated, still held, and pulled
    by at least ``pull_min_displacement``
  - grasp accuracy degrades with unguided travel beyond ``reach_accuracy_radius``
    (long blind reaches land inaccurately; short corrective moves are precise)

The state vector exposed to learners is 7-D: end-effector position, a holding
bit (finger-aperture analog: 1 only when the handle is actually in the
gripper), the end-effector offset from the handle rest position, the handle
angle, and the door angle. The true handle position never appears in it.

``LatchEnv`` owns what a rollout is: the nominal skills, the goal test, the
open-loop rollout of the nominal chain on one frozen handle estimate
(``run_chain``), the rollout of one action per given start state, planned on
the true handle position (``execute_from``), and the halving estimator's step
(``halving_step``: halve the noise, draw a fresh estimate). Discovery,
precondition chaining, recovery training and evaluation all call these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import RecoveryForgeError, at_least, check_fields

STATE_DIM = 7
THETA_DIM = 9  # three waypoints x (dx, dy, gripper)


def _clamp(x: float, lo: float, hi: float) -> float:
    """``np.clip`` of one scalar, signed zeros and NaN included, without the
    array round trip."""
    return float(min(max(x, lo), hi))


class SkillId(str, Enum):
    REACH = "Reach"
    ROTATE = "Rotate"
    PULL = "Pull"


# The ranges of the settings; each one's type is its annotation.
_ENV_LIMITS = {
    "sigma_ref": at_least(0),
    "pessimistic_sigma_factor": at_least(0),
    "knn_state_scale": (lambda scale: len(scale) == STATE_DIM, f"a list of {STATE_DIM} numbers"),
}


@dataclass(frozen=True)
class EnvConfig:
    world_box: float = 0.5              # positions live in [-world_box, world_box]^2
    handle_box: float = 0.1             # handle rest position drawn uniformly here
    start_offset: tuple[float, float] = (-0.15, 0.12)
    start_jitter: float = 0.04          # uniform reset jitter on the start pose
    grasp_radius: float = 0.03
    slip_radius: float = 0.024
    sigma_ref: float = 0.02             # reference observation noise (meters)
    settle_sigma: float = 0.005         # waypoint tracking error
    reach_accuracy_radius: float = 0.25  # unguided travel beyond this degrades the grasp
    reach_accuracy_slope: float = 1.0
    lever_length: float = 0.06          # grip-point travel for a full rotation
    rotate_plan_dy: float = -0.075      # nominal rotate overshoots the lever end
    pull_plan_dx: float = -0.10
    pull_min_displacement: float = 0.08
    angle_max: float = 1.0
    door_max: float = 1.0
    goal_threshold: float = 0.5
    detent_fraction: float = 0.25       # spring detents snap within this of either end
    slip_jam_range: tuple[float, float] = (0.3, 0.9)
    pessimistic_sigma_factor: float = 1.5
    theta_displacement_bound: float = 0.3
    knn_state_scale: tuple[float, ...] = (0.06, 0.06, 1.0, 0.02, 0.02, 0.5, 0.5)

    def __post_init__(self):
        check_fields(self, _ENV_LIMITS)

    def nominal_costs(self) -> tuple[float, float, float]:
        """Ideal path lengths of the three skills (graph edge costs)."""
        reach = math.hypot(*self.start_offset)
        return (reach, abs(self.rotate_plan_dy), abs(self.pull_plan_dx))

    def theta_bounds(self) -> np.ndarray:
        b = self.theta_displacement_bound
        bounds = []
        for _ in range(3):
            bounds += [(-b, b), (-b, b), (0.0, 1.0)]
        return np.asarray(bounds)


@dataclass(frozen=True)
class WorldState:
    ee_pos: tuple[float, float]
    gripper_closed: bool
    grasp_offset: tuple[float, float] | None  # ee-to-grip-point offset at grasp time
    handle_angle: float
    door_open: float
    handle_pos_true: tuple[float, float]


@dataclass(frozen=True)
class NominalSkill:
    id: SkillId

    def plan(self, observation, state: WorldState, config: EnvConfig):
        """Waypoints (target, gripper bit) from the handle estimate and proprioception."""
        ox, oy = float(observation[0]), float(observation[1])
        ex, ey = state.ee_pos
        if self.id is SkillId.REACH:
            return [((ox, oy), 0.0), ((ox, oy), 1.0)]
        if self.id is SkillId.ROTATE:
            return [((ex, ey + config.rotate_plan_dy), 1.0)]
        return [((ex + config.pull_plan_dx, ey), 1.0)]


NOMINAL_SKILLS = (
    NominalSkill(SkillId.REACH),
    NominalSkill(SkillId.ROTATE),
    NominalSkill(SkillId.PULL),
)


def mls_vector(state_vector, handle_obs) -> np.ndarray:
    """Most-likely state: the true state vector with its handle offset taken
    from the estimate."""
    mls = np.array(state_vector, dtype=float)
    mls[3] = mls[0] - handle_obs[0]
    mls[4] = mls[1] - handle_obs[1]
    return mls


@dataclass
class ChainRecord:
    states: list[np.ndarray]  # the start state, then one per executed skill
    estimate: np.ndarray  # the frozen handle estimate every skill planned on
    costs: list[float]
    success: bool
    executed: int


class LatchEnv:
    """Owns one RNG; reseeded on reset so whole episodes replay bit-identically."""

    def __init__(self, config: EnvConfig | None = None, seed: int = 0):
        self.config = config or EnvConfig()
        self._rng = np.random.default_rng(seed)
        bounds = self.config.theta_bounds()
        # Accepted theta range, with the 1e-9 slack of the bounds check.
        self._theta_lo = bounds[:, 0] - 1e-9
        self._theta_hi = bounds[:, 1] + 1e-9

    # -- state vector <-> world state -------------------------------------------

    def state_vector(self, state: WorldState) -> np.ndarray:
        hx, hy = state.handle_pos_true
        ex, ey = state.ee_pos
        holding = 1.0 if state.grasp_offset is not None else 0.0
        return np.array(
            [ex, ey, holding, ex - hx, ey - hy, state.handle_angle, state.door_open]
        )

    def mls_state_vector(self, state: WorldState, handle_obs) -> np.ndarray:
        """Most-likely state: true proprioception, estimated handle offset."""
        return mls_vector(self.state_vector(state), handle_obs)

    def _grip_point(self, handle_pos, angle: float) -> tuple[float, float]:
        """Where the handle can be held: the lever end travels down as it rotates."""
        c = self.config
        frac = angle / c.angle_max
        return (handle_pos[0], handle_pos[1] - c.lever_length * frac)

    def set_state(self, vector) -> WorldState:
        """Rebuild the most consistent world state from a 7-D state vector."""
        c = self.config
        v = np.asarray(vector, dtype=float)
        if v.shape != (STATE_DIM,):
            raise RecoveryForgeError(f"state vector must have shape ({STATE_DIM},)")
        ee = (_clamp(v[0], -c.world_box, c.world_box), _clamp(v[1], -c.world_box, c.world_box))
        handle = (ee[0] - float(v[3]), ee[1] - float(v[4]))
        angle = _clamp(v[5], 0.0, c.angle_max)
        door = _clamp(v[6], 0.0, c.door_max)
        closed = bool(v[2] >= 0.5)
        grasp_offset = None
        if closed:
            grip = self._grip_point(handle, angle)
            off = (ee[0] - grip[0], ee[1] - grip[1])
            if math.hypot(*off) <= c.grasp_radius:
                grasp_offset = off
        return WorldState(ee, closed, grasp_offset, angle, door, handle)

    # -- episode control ----------------------------------------------------------

    def reset(self, seed=None, sigma: float | None = None):
        """Seeded episode start; returns the state and the first handle
        estimate, drawn with noise ``sigma`` (default ``sigma_ref``)."""
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        c = self.config
        handle = tuple(self._rng.uniform(-c.handle_box, c.handle_box, 2))
        jitter = self._rng.uniform(-c.start_jitter, c.start_jitter, 2)
        ee = (
            _clamp(handle[0] + c.start_offset[0] + jitter[0], -c.world_box, c.world_box),
            _clamp(handle[1] + c.start_offset[1] + jitter[1], -c.world_box, c.world_box),
        )
        state = WorldState(ee, False, None, 0.0, 0.0, handle)
        return state, self.observe(state, c.sigma_ref if sigma is None else sigma)

    def rng_state(self) -> dict:
        """The generator's state: ``restore_rng`` of it replays the draws from here."""
        return self._rng.bit_generator.state

    def restore_rng(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    def observe(self, state: WorldState, sigma: float) -> np.ndarray:
        noise = self._rng.normal(0.0, 1.0, 2) * sigma
        return np.array([state.handle_pos_true[0] + noise[0], state.handle_pos_true[1] + noise[1]])

    def halving_step(self, state: WorldState, sigma: float) -> tuple[float, np.ndarray]:
        """The halving state estimator after a skill: halve the noise, then
        draw a fresh estimate at the new level."""
        sigma = sigma / 2.0
        return sigma, self.observe(state, sigma)

    def goal_predicate(self, state: WorldState) -> int:
        return int(state.door_open >= self.config.goal_threshold)

    def goal_predicate_vector(self, vector) -> int:
        return int(float(np.asarray(vector)[6]) >= self.config.goal_threshold)

    def nominal_skills(self) -> tuple[NominalSkill, ...]:
        return NOMINAL_SKILLS

    # -- execution -----------------------------------------------------------------

    def _waypoints_for(self, state: WorldState, skill_or_theta, observation):
        if hasattr(skill_or_theta, "plan"):  # any waypoint-planning skill
            return skill_or_theta.plan(observation, state, self.config)
        theta = np.asarray(skill_or_theta, dtype=float)
        if theta.shape != (THETA_DIM,):
            raise RecoveryForgeError(f"theta must have shape ({THETA_DIM},), got {theta.shape}")
        # One fused check accepts every valid theta (NaN and +-inf fail it);
        # a rejected one gets its specific error below.
        if not ((theta >= self._theta_lo) & (theta <= self._theta_hi)).all():
            if not np.all(np.isfinite(theta)):
                raise RecoveryForgeError("theta contains non-finite values")
            raise RecoveryForgeError("theta outside the action-parameter bounds")
        ex, ey = state.ee_pos
        t = theta.tolist()
        return [((ex + t[i], ey + t[i + 1]), t[i + 2]) for i in (0, 3, 6)]

    def execute_skill(self, state: WorldState, skill_or_theta, observation):
        """Run one nominal skill or one 9-D recovery parameter vector."""
        new_state, cost, _ = self._execute_waypoints(
            state, self._waypoints_for(state, skill_or_theta, observation)
        )
        return new_state, cost

    def execute_from(self, states, actions) -> np.ndarray:
        """The (N, 7) end-state vectors of ``actions[n]`` (a nominal skill or a
        recovery theta) run from world state ``states[n]`` in row order, each
        planned on the true handle position: the draws of N ``execute_skill``s."""
        ends = []
        for state, action in zip(states, actions, strict=True):
            end, _ = self.execute_skill(state, action, state.handle_pos_true)
            ends.append(self.state_vector(end))
        return np.array(ends).reshape(-1, STATE_DIM)

    def _execute_waypoints(self, state: WorldState, waypoints):
        c = self.config
        ee = state.ee_pos
        closed = state.gripper_closed
        grasp = state.grasp_offset
        angle = state.handle_angle
        door = state.door_open
        handle = state.handle_pos_true
        cost = 0.0
        travelled = 0.0
        path: list[tuple[float, float]] = []

        box = c.world_box
        for target, bit in waypoints:
            planned_len = math.hypot(target[0] - ee[0], target[1] - ee[1])
            travelled += planned_len
            # Each draw is unpacked to floats: the same IEEE products and sums
            # as on the numpy array, without the per-element scalar boxing.
            sx, sy = self._rng.normal(0.0, 1.0, 2).tolist()
            rx = target[0] + sx * c.settle_sigma
            ry = target[1] + sy * c.settle_sigma
            closing = bit >= 0.5 and not closed
            if closing:
                # grasp-point registration error grows with unguided travel
                extra = c.reach_accuracy_slope * max(0.0, travelled - c.reach_accuracy_radius)
                if extra > 0.0:
                    dx, dy = self._rng.normal(0.0, 1.0, 2).tolist()
                    rx += dx * extra
                    ry += dy * extra
            realized = (min(max(rx, -box), box), min(max(ry, -box), box))
            seg = (realized[0] - ee[0], realized[1] - ee[1])
            seg_len = math.hypot(*seg)
            cost += seg_len

            if grasp is not None and seg_len > 0.0:
                # dragging the held handle: -y motion rotates toward open
                delta_angle = (-seg[1] / c.lever_length) * c.angle_max
                if math.hypot(*grasp) > c.slip_radius:
                    frac = self._rng.uniform(*c.slip_jam_range)
                    angle = self._snap(_clamp(angle + frac * max(delta_angle, 0.0), 0.0, c.angle_max))
                    grasp = None  # slipped out of the gripper partway
                else:
                    angle = self._snap(_clamp(angle + delta_angle, 0.0, c.angle_max))
                    if (
                        angle >= c.angle_max - 1e-12
                        and -seg[0] >= c.pull_min_displacement
                        and door < c.door_max
                    ):
                        door = c.door_max
            ee = realized
            path.append(ee)

            if bit >= 0.5 and not closed:
                grip = self._grip_point(handle, angle)
                off = (ee[0] - grip[0], ee[1] - grip[1])
                grasp = off if math.hypot(*off) <= c.grasp_radius else None
                closed = True
            elif bit < 0.5 and closed:
                closed = False
                grasp = None

        new_state = WorldState(ee, closed, grasp, angle, door, handle)
        return new_state, cost, path

    def _snap(self, angle: float) -> float:
        """Spring detents at both ends of the handle travel."""
        c = self.config
        if angle >= (1.0 - c.detent_fraction) * c.angle_max:
            return c.angle_max
        if angle <= c.detent_fraction * c.angle_max:
            return 0.0
        return angle

    # -- full chain rollout -----------------------------------------------------------

    def run_chain(self, sigma: float, seed=None) -> ChainRecord:
        """The nominal skills open-loop on one handle estimate with noise
        ``sigma``, frozen for the whole episode; stops early only at the goal,
        which is absorbing (the door never closes)."""
        state, obs = self.reset(seed=seed, sigma=sigma)
        states = [self.state_vector(state)]
        costs: list[float] = []
        for skill in NOMINAL_SKILLS:
            state, cost = self.execute_skill(state, skill, obs)
            costs.append(cost)
            states.append(self.state_vector(state))
            if self.goal_predicate(state):
                break
        return ChainRecord(
            states=states,
            estimate=obs,
            costs=costs,
            success=bool(self.goal_predicate(state)),
            executed=len(costs),
        )
