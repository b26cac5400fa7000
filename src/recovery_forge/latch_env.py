"""Deterministic, seedable 2-D latch world.

The world is fixed: its geometry, noise and action bounds are the module
constants below (``WORLD_BOX`` through ``THETA_DISPLACEMENT_BOUND``), with the
derived ``NOMINAL_COSTS`` and ``THETA_BOUNDS``. What a run varies is passed
in: the estimate noise ``sigma`` of each ``reset``, ``run_chain`` and
``halving_step``, and the seed.

A point end-effector must grasp a spring-latched handle, rotate it to the end
of its travel, and pull the door open, while the handle position is only known
through a noisy estimate. Geometry is kinematic: skills emit waypoints, the
end-effector tracks them with a small seeded settle error, and grasp / rotation
/ door effects are resolved per segment.

Mechanics summary:
  - closing the gripper within ``GRASP_RADIUS`` of the current grip point
    grasps the handle; the frozen grip offset decides later slips
  - while holding, end-effector motion drags the handle lever: displacement
    along the rotation direction converts to handle angle (spring detents snap
    the angle to either end of travel); a grip worse than ``SLIP_RADIUS``
    slips partway through the drag, leaving the handle jammed
  - the door opens when the handle is fully rotated, still held, and pulled
    by at least ``PULL_MIN_DISPLACEMENT``
  - grasp accuracy degrades with unguided travel beyond ``REACH_ACCURACY_RADIUS``
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

Draw contract: everything random comes from the env's one generator, in a
fixed order; each episode resets it from its own ``SeedSequence`` child. Every
waypoint of a rollout reads five standard normals, used or not: settle x and
y, drift x and y (used when a grasp follows unguided travel beyond the
accuracy radius), and the slip normal (used when a held grip slips, through
the normal CDF, as a uniform fraction of ``SLIP_JAM_RANGE``).
``execute_skill`` and ``execute_from`` run one row loop (``_rollout``) that
draws the five normals of all its waypoints in one block. A block of m normals
is the next m draws in order, so one N-row ``execute_from`` reads the numbers
of N one-row calls and leaves the generator where they do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import RecoveryForgeError

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


# The latch world: its geometry, tracking noise and action bounds.
WORLD_BOX = 0.5                 # positions live in [-WORLD_BOX, WORLD_BOX]^2
HANDLE_BOX = 0.1                # handle rest position drawn uniformly here
START_OFFSET = (-0.15, 0.12)    # start pose relative to the handle
START_JITTER = 0.04             # uniform reset jitter on the start pose
GRASP_RADIUS = 0.03
SLIP_RADIUS = 0.024
SETTLE_SIGMA = 0.005            # waypoint tracking error
REACH_ACCURACY_RADIUS = 0.25    # unguided travel beyond this degrades the grasp
REACH_ACCURACY_SLOPE = 1.0
LEVER_LENGTH = 0.06             # grip-point travel for a full rotation
ROTATE_PLAN_DY = -0.075         # nominal rotate overshoots the lever end
PULL_PLAN_DX = -0.10
PULL_MIN_DISPLACEMENT = 0.08
ANGLE_MAX = 1.0
DOOR_MAX = 1.0
GOAL_THRESHOLD = 0.5
DETENT_FRACTION = 0.25          # spring detents snap within this of either end
SLIP_JAM_RANGE = (0.3, 0.9)
THETA_DISPLACEMENT_BOUND = 0.3

# Ideal path lengths of the three skills (graph edge costs).
NOMINAL_COSTS = (math.hypot(*START_OFFSET), abs(ROTATE_PLAN_DY), abs(PULL_PLAN_DX))

# One (low, high) row per recovery parameter: three waypoints' displacements
# and gripper bits. Read-only, as every caller shares it.
_DISPLACEMENT = (-THETA_DISPLACEMENT_BOUND, THETA_DISPLACEMENT_BOUND)
THETA_BOUNDS = np.array([_DISPLACEMENT, _DISPLACEMENT, (0.0, 1.0)] * 3)
THETA_BOUNDS.flags.writeable = False
# Accepted theta range, with the 1e-9 slack of the bounds check.
_THETA_LO = THETA_BOUNDS[:, 0] - 1e-9
_THETA_HI = THETA_BOUNDS[:, 1] + 1e-9


def _theta_plans(states, thetas) -> list:
    """Each row of a theta matrix, checked as one theta (the first bad row
    raises its shape, then non-finite, then bounds error), as its three
    waypoints [x, y, gripper bit]: displacements from its state's ``ee_pos``."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape[1:] != (THETA_DIM,):
        raise RecoveryForgeError(f"theta must have shape ({THETA_DIM},), got {thetas.shape[1:]}")
    # One fused check accepts every valid theta (NaN and +-inf fail it); the
    # first rejected row gets its specific error below.
    inside = (thetas >= _THETA_LO) & (thetas <= _THETA_HI)
    if not inside.all():
        if not np.all(np.isfinite(thetas[np.argmin(inside.all(axis=1))])):
            raise RecoveryForgeError("theta contains non-finite values")
        raise RecoveryForgeError("theta outside the action-parameter bounds")
    poses = np.array([(*state.ee_pos, 0.0) for state in states])
    return (thetas.reshape(-1, 3, 3) + poses[:, None]).tolist()


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

    def plan(self, observation, state: WorldState):
        """Waypoints (x, y, gripper bit) from the handle estimate and proprioception."""
        ox, oy = float(observation[0]), float(observation[1])
        ex, ey = state.ee_pos
        if self.id is SkillId.REACH:
            return ((ox, oy, 0.0), (ox, oy, 1.0))
        if self.id is SkillId.ROTATE:
            return ((ex, ey + ROTATE_PLAN_DY, 1.0),)
        return ((ex + PULL_PLAN_DX, ey, 1.0),)


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


class LatchEnv:
    """Owns one RNG; reseeded on reset so whole episodes replay bit-identically."""

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)

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
        frac = angle / ANGLE_MAX
        return (handle_pos[0], handle_pos[1] - LEVER_LENGTH * frac)

    def set_state(self, vector) -> WorldState:
        """Rebuild the most consistent world state from a 7-D state vector."""
        v = np.asarray(vector, dtype=float)
        if v.shape != (STATE_DIM,):
            raise RecoveryForgeError(f"state vector must have shape ({STATE_DIM},)")
        ee = (_clamp(v[0], -WORLD_BOX, WORLD_BOX), _clamp(v[1], -WORLD_BOX, WORLD_BOX))
        handle = (ee[0] - float(v[3]), ee[1] - float(v[4]))
        angle = _clamp(v[5], 0.0, ANGLE_MAX)
        door = _clamp(v[6], 0.0, DOOR_MAX)
        closed = bool(v[2] >= 0.5)
        grasp_offset = None
        if closed:
            grip = self._grip_point(handle, angle)
            off = (ee[0] - grip[0], ee[1] - grip[1])
            if math.hypot(*off) <= GRASP_RADIUS:
                grasp_offset = off
        return WorldState(ee, closed, grasp_offset, angle, door, handle)

    # -- episode control ----------------------------------------------------------

    def reset(self, seed, sigma: float):
        """Episode start, reseeded from ``seed``; returns the state and the
        first handle estimate, drawn with noise ``sigma``."""
        self._rng = np.random.default_rng(seed)
        handle = tuple(self._rng.uniform(-HANDLE_BOX, HANDLE_BOX, 2).tolist())
        jitter = self._rng.uniform(-START_JITTER, START_JITTER, 2)
        ee = (
            _clamp(handle[0] + START_OFFSET[0] + jitter[0], -WORLD_BOX, WORLD_BOX),
            _clamp(handle[1] + START_OFFSET[1] + jitter[1], -WORLD_BOX, WORLD_BOX),
        )
        state = WorldState(ee, False, None, 0.0, 0.0, handle)
        return state, self.observe(state, sigma)

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
        return int(state.door_open >= GOAL_THRESHOLD)

    def goal_predicate_vector(self, vector) -> int:
        return int(float(np.asarray(vector)[6]) >= GOAL_THRESHOLD)

    def nominal_skills(self) -> tuple[NominalSkill, ...]:
        return NOMINAL_SKILLS

    # -- execution -----------------------------------------------------------------

    def execute_skill(self, state: WorldState, skill_or_theta, observation):
        """Run one nominal skill or one 9-D recovery parameter vector."""
        if hasattr(skill_or_theta, "plan"):  # any waypoint-planning skill
            plan = skill_or_theta.plan(observation, state)
        else:
            (plan,) = _theta_plans([state], np.asarray(skill_or_theta, dtype=float)[None])
        ((ee, closed, grasp, angle, door, cost),) = self._rollout([state], [plan])
        return WorldState(ee, closed, grasp, angle, door, state.handle_pos_true), cost

    def execute_from(self, states, actions) -> np.ndarray:
        """The (N, 7) end-state vectors of ``actions[n]`` run from world state
        ``states[n]`` in row order, each planned on the true handle position;
        ``actions`` is one nominal skill per row or an (N, 9) theta matrix.

        The thetas are checked before any draw: the first bad row raises the
        error ``execute_skill`` gives for it, and a rejected batch draws
        nothing. The theta waypoints come from one add on the matrix. The rows
        run through ``execute_skill``'s loop (``_rollout``), which reads five
        normals per waypoint from one block, so the ends and the generator's
        place are those of N ``execute_skill`` calls.
        """
        if not len(actions) or hasattr(actions[0], "plan"):
            plans = [
                skill.plan(state.handle_pos_true, state)
                for state, skill in zip(states, actions, strict=True)
            ]
        else:
            plans = _theta_plans(states, actions)
        ends = []
        for state, ((ex, ey), _, grasp, angle, door, _) in zip(
            states, self._rollout(states, plans)
        ):
            hx, hy = state.handle_pos_true
            holding = 0.0 if grasp is None else 1.0
            ends.append((ex, ey, holding, ex - hx, ey - hy, angle, door))
        return np.array(ends).reshape(-1, STATE_DIM)

    def _rollout(self, states, plans) -> list[tuple]:
        """Track each row's waypoints ``plans[n]`` from ``states[n]``, in row
        order; returns per row the end's ``ee_pos``, ``gripper_closed``,
        ``grasp_offset``, ``handle_angle`` and ``door_open``, and the cost.

        One ``standard_normal(5 W)`` block feeds the call's W waypoints:
        waypoint w reads normals 5w to 5w + 4 (settle x and y, drift x and y,
        slip), whether it uses them or not.
        """
        lo, hi = SLIP_JAM_RANGE
        sqrt2 = math.sqrt(2.0)
        box = WORLD_BOX
        settle = SETTLE_SIGMA
        normals = self._rng.standard_normal(5 * sum(map(len, plans))).tolist()
        used = 0
        ends = []
        for state, plan in zip(states, plans, strict=True):
            ex, ey = state.ee_pos
            closed = state.gripper_closed
            grasp = state.grasp_offset
            angle = state.handle_angle
            door = state.door_open
            handle = state.handle_pos_true
            cost = 0.0
            travelled = 0.0
            for tx, ty, bit in plan:
                travelled += math.hypot(tx - ex, ty - ey)
                rx = tx + normals[used] * settle
                ry = ty + normals[used + 1] * settle
                closing = bit >= 0.5 and not closed
                if closing:
                    # grasp-point registration error grows with unguided travel
                    extra = REACH_ACCURACY_SLOPE * max(0.0, travelled - REACH_ACCURACY_RADIUS)
                    if extra > 0.0:
                        rx += normals[used + 2] * extra
                        ry += normals[used + 3] * extra
                # min(max(v, -box), box), NaN kept, without the builtin calls
                rx = -box if rx < -box else box if rx > box else rx
                ry = -box if ry < -box else box if ry > box else ry
                sx = rx - ex
                sy = ry - ey
                seg_len = math.hypot(sx, sy)
                cost += seg_len

                if grasp is not None and seg_len > 0.0:
                    # dragging the held handle: -y motion rotates toward open
                    delta_angle = (-sy / LEVER_LENGTH) * ANGLE_MAX
                    if math.hypot(*grasp) > SLIP_RADIUS:
                        # uniform on SLIP_JAM_RANGE: the normal CDF of the slip normal
                        frac = lo + (hi - lo) * 0.5 * math.erfc(-normals[used + 4] / sqrt2)
                        angle = _clamp(angle + frac * max(delta_angle, 0.0), 0.0, ANGLE_MAX)
                        angle = self._snap(angle)
                        grasp = None  # slipped out of the gripper partway
                    else:
                        angle = self._snap(_clamp(angle + delta_angle, 0.0, ANGLE_MAX))
                        if (
                            angle >= ANGLE_MAX - 1e-12
                            and -sx >= PULL_MIN_DISPLACEMENT
                            and door < DOOR_MAX
                        ):
                            door = DOOR_MAX
                ex, ey = rx, ry
                used += 5

                if closing:
                    grip_x, grip_y = self._grip_point(handle, angle)
                    off = (ex - grip_x, ey - grip_y)
                    grasp = off if math.hypot(*off) <= GRASP_RADIUS else None
                    closed = True
                elif bit < 0.5 and closed:
                    closed = False
                    grasp = None
            ends.append(((ex, ey), closed, grasp, angle, door, cost))
        return ends

    def _snap(self, angle: float) -> float:
        """Spring detents at both ends of the handle travel."""
        if angle >= (1.0 - DETENT_FRACTION) * ANGLE_MAX:
            return ANGLE_MAX
        if angle <= DETENT_FRACTION * ANGLE_MAX:
            return 0.0
        return angle

    # -- full chain rollout -----------------------------------------------------------

    def run_chain(self, sigma: float, seed) -> ChainRecord:
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
        )
