"""The seed tree: every random stream of a stage is a named ``SeedSequence``
child of the pipeline seed (``harness_cli.SEED_ROLES``), and no code below
the stages derives a seed of its own."""

from dataclasses import replace

import numpy as np
import pytest

from recovery_forge import harness_cli
from recovery_forge.harness_cli import SEED_ROLES, ExperimentConfig, stage_seeds
from recovery_forge.latch_env import LatchEnv

from conftest import PIPELINE_SEED, calls_of, package_sources


def _words(seq):
    return tuple(seq.generate_state(4).tolist())


def test_every_stage_role_child_is_its_own_stream():
    words = {
        (seed, stage, role): _words(child)
        for seed in range(4)
        for stage in SEED_ROLES
        for role, child in stage_seeds(stage, seed).items()
    }
    assert len(words) == 4 * sum(map(len, SEED_ROLES.values()))
    assert len(set(words.values())) == len(words)


def test_role_r_of_stage_s_is_child_r_of_child_s_of_the_pipeline_seed():
    for seed in (0, 7):
        stages = np.random.SeedSequence(seed).spawn(len(SEED_ROLES))
        for s, (stage, roles) in enumerate(SEED_ROLES.items()):
            children = stages[s].spawn(len(roles))
            got = stage_seeds(stage, seed)
            assert list(got) == list(roles)
            assert [_words(got[role]) for role in roles] == [_words(c) for c in children]


def _streams(seed):
    return {
        (stage, role): _words(child)
        for stage in harness_cli.SEED_ROLES
        for role, child in harness_cli.stage_seeds(stage, seed).items()
    }


def test_an_appended_role_or_stage_moves_no_other_stream(monkeypatch):
    before = _streams(3)
    grown = {stage: (*roles, "later") for stage, roles in SEED_ROLES.items()}
    monkeypatch.setattr(harness_cli, "SEED_ROLES", {**grown, "later-stage": ("env",)})
    after = _streams(3)
    assert len(after) == len(before) + len(SEED_ROLES) + 1
    assert {key: after[key] for key in before} == before
    assert len(set(after.values())) == len(after)


def test_discovery_replays_no_start_world_of_chaining(tmp_path, monkeypatch):
    # Both stages once drew their episode seeds from one generator of the
    # pipeline seed, so discovery's first episodes replayed chaining's worlds.
    starts = []
    reset = LatchEnv.reset

    def spied_reset(env, seed, sigma):
        state, obs = reset(env, seed, sigma)
        starts.append((state.handle_pos_true, state.ee_pos))
        return state, obs

    class Clustered(Exception):
        """Discovery's episodes ran: they are all this test needs."""

    def clustered(*args, **kwargs):
        raise Clustered

    monkeypatch.setattr(LatchEnv, "reset", spied_reset)
    monkeypatch.setattr(harness_cli, "cluster_failures", clustered)
    config = ExperimentConfig(out_dir=str(tmp_path), seed=PIPELINE_SEED, discovery_episodes=60)
    preconds = harness_cli.cmd_chain_preconds(config)
    chaining = set(starts)
    starts.clear()
    with pytest.raises(Clustered):
        harness_cli.cmd_discover(replace(config, preconds_path=preconds))
    assert len(chaining) >= config.n_trajectories and len(starts) == 60
    assert not chaining & set(starts)


def test_synthetic_noise_is_no_task_sets_stream_and_both_strategies_share_it(monkeypatch):
    task_sets, noise = [], []  # per call: its seed; per trainer: its noise draws
    make_task_set, trainer = harness_cli.synthetic_task_set, harness_cli.SyntheticTrainer

    class Recorded:
        def __init__(self, rng, draws):
            self.rng, self.draws = rng, draws

        def uniform(self, low, high):
            self.draws.append(self.rng.uniform(low, high))
            return self.draws[-1]

    class SpiedTrainer(trainer):
        def __init__(self, q_max, tau, seed):
            super().__init__(q_max, tau, seed)
            noise.append((seed, []))
            self.rng = Recorded(self.rng, noise[-1][1])

    monkeypatch.setattr(
        harness_cli, "synthetic_task_set", lambda seed: task_sets.append(seed) or make_task_set(seed)
    )
    monkeypatch.setattr(harness_cli, "SyntheticTrainer", SpiedTrainer)
    config = ExperimentConfig(budget=40)
    for seed in range(6):
        harness_cli.run_synthetic_allocation(config, seed)
    assert len(task_sets) == 6 and len(noise) == 12
    first_draws = lambda seed: tuple(np.random.default_rng(seed).random(4))  # noqa: E731
    task_set_draws = {first_draws(seed) for seed in task_sets}
    for (rr_seed, rr_draws), (_, ucl_draws) in zip(noise[::2], noise[1::2]):
        assert first_draws(rr_seed) not in task_set_draws
        assert len(rr_draws) == config.budget and rr_draws == ucl_draws  # common random numbers


# -- the contract, on the source -------------------------------------------------------

# What no code under src/ may write: each derives a seed or a stream of its own.
FORBIDDEN = ("integers(2**", "generate_state(", "seed + 1")

# The functions that may call ``np.random.default_rng``: the draw-only
# consumers, the env, and chaining's per-skill streams.
DEFAULT_RNG_CALLERS = {
    "classifiers.gaussian_sample",
    "classifiers.fit_gmm",
    "reps.reps_optimize",
    "recovery_skills.train_recovery_datapoint",
    "harness_cli.SyntheticTrainer.__init__",
    "harness_cli.synthetic_task_set",
    "latch_env.LatchEnv.__init__",
    "latch_env.LatchEnv.reset",
    "precondition_chaining.chain_preconditions",
}


def test_no_source_derives_a_seed_of_its_own():
    for module, text in package_sources():
        for pattern in FORBIDDEN:
            assert pattern not in text, (module, pattern)


def test_only_the_role_helper_builds_a_seed_sequence():
    built = [call for module, text in package_sources() for call in calls_of(module, text, "SeedSequence")]
    assert built == ["harness_cli.stage_seeds"]


def test_only_the_per_episode_and_per_round_consumers_spawn():
    # Each takes a ``SeedSequence`` child: no ``Generator.spawn`` (numpy 1.25).
    spawners = {call for module, text in package_sources() for call in calls_of(module, text, "spawn")}
    assert spawners == {
        "precondition_chaining.collect_success_trajectories",
        "precondition_chaining.chain_preconditions",
        "failure_discovery.discover_pessimistic",
        "failure_discovery.discover_early_termination",
        "harness_cli.train_one_seed.train",
        "harness_cli.evaluate_seed",
    }


def test_only_draw_only_consumers_and_the_env_call_default_rng():
    callers = {call for module, text in package_sources() for call in calls_of(module, text, "default_rng")}
    assert callers <= DEFAULT_RNG_CALLERS, callers - DEFAULT_RNG_CALLERS


def test_the_call_scan_names_the_enclosing_function():
    text = (
        "x = np.random.default_rng(0)\n"
        "class A:\n"
        "    def f(self):\n"
        "        return [np.random.default_rng(s) for s in range(2)]\n"
        "def g():\n"
        "    def h():\n"
        "        return default_rng(1), rng.spawn(2)\n"
    )
    assert calls_of("m", text, "default_rng") == ["m", "m.A.f", "m.g.h"]
    assert calls_of("m", text, "spawn") == ["m.g.h"]
