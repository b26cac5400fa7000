"""Shared test inputs: the pipeline seeds that ``discover`` passes, the
small chain of preconditions that several modules test against, a mixture's
responsibilities as a reference, and the scan of the package's sources for
calls."""

import ast
import os

import numpy as np
import pytest

from recovery_forge.classifiers import _joint_logpdfs, logsumexp
from recovery_forge.harness_cli import NEIGHBORHOOD_SCALE, stage_seeds
from recovery_forge.latch_env import LatchEnv
from recovery_forge.precondition_chaining import chain_preconditions, collect_success_trajectories

# The three smallest pipeline seeds that ``discover`` passes at the stage's
# chaining config (60 trajectories, 250 samples per skill). It rejects seeds 0
# and 3 there ("0 failure states cannot form 6 modes", ROADMAP direction 7).
# A re-seed that moves the rejected set re-picks them here, and only here.
PIPELINE_SEEDS = (1, 2, 4)
PIPELINE_SEED = PIPELINE_SEEDS[0]  # the tests that run one pipeline seed
EVAL_SEEDS = PIPELINE_SEEDS[:2]  # the tests that compare two


def spawned_child(seq: np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    """Child ``index`` of ``seq`` as ``seq.spawn`` makes it, built from its
    spawn key: an oracle for a consumer's spawn schedule."""
    return np.random.SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key, index))


def learn_preconds(pipeline_seed: int, n_trajectories: int, samples_per_skill: int):
    """The chain-preconds stage at ``pipeline_seed``: its env, its
    trajectories and the preconditions it learns."""
    seeds = stage_seeds("chain-preconds", pipeline_seed)
    env = LatchEnv(seed=seeds["env"])
    trajectories = collect_success_trajectories(env, n_trajectories, seeds["trajectories"])
    preconds = chain_preconditions(
        env, trajectories, m=samples_per_skill, scale=NEIGHBORHOOD_SCALE, seed=seeds["chaining"]
    )
    return env, trajectories, preconds


# The pipeline seed of the small chain below: the smallest one whose chain the
# tests of ``small_chain`` pass on. At seed 2 chaining finds too few negative
# labels; at seeds 0, 1 and 3 discovery finds no failure in the tests' 100
# episodes, and at 1 the first precondition also accepts every test state.
SMALL_CHAIN_SEED = 4


@pytest.fixture(scope="session")
def small_chain():
    """A chain's preconditions from 20 trajectories and 150 samples per skill,
    learned by the chain-preconds stage at ``SMALL_CHAIN_SEED``."""
    return learn_preconds(SMALL_CHAIN_SEED, 20, 150)[2]


def responsibilities(model, x) -> np.ndarray:
    """Posterior component probabilities of a ``GmmModel`` for each row of
    ``x``: the mixture reference that the classifier and artifact tests
    compare against."""
    logs = _joint_logpdfs(model._stacked, np.atleast_2d(np.asarray(x, dtype=float)))
    return np.exp(logs - logsumexp(logs, axis=1)[:, None])


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def package_sources():
    """(module name, source text) of every module of the package."""
    package = os.path.join(SRC, "recovery_forge")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                yield name[:-3], fh.read()


def calls_of(module, text, name):
    """The qualified name of the function around each call of ``name`` or
    ``<anything>.name``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Call) and name in (
                getattr(child.func, "attr", None), getattr(child.func, "id", None)
            ):
                found.append(".".join((module, *scope)))
            visit(child, inner)

    visit(ast.parse(text), ())
    return found
