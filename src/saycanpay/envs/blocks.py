"""Put-blocks-in-bowls task: place every goal-colored block in a goal-colored bowl."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from ..core import ActionInstance, ContractError, GoalSpec
from .base import DEFAULT_MAX_STEPS, Environment, EpisodeSpec, SymbolicState

COLORS = ("yellow", "gray", "blue", "red", "green", "orange")
HELD_OUT_COLORS = ("purple", "brown")
DONE_TEXT = "done placing blocks"


class _Entities(NamedTuple):
    blocks: tuple[str, ...]
    bowls: tuple[str, ...]
    puts: frozenset[tuple[str, str, str]]


@lru_cache(maxsize=4096)
def _entities(listing: tuple[str, ...]) -> _Entities:
    """The blocks and bowls of a listing and the put ops that name them,
    shared by every state of an episode."""
    blocks = tuple(e for e in listing if " block " in f" {e} ")
    bowls = tuple(e for e in listing if " bowl " in f" {e} ")
    puts = frozenset(("put", block, bowl) for block in blocks for bowl in bowls)
    return _Entities(blocks, bowls, puts)


@lru_cache(maxsize=4096)
def _goal_blocks(listing: tuple[str, ...], block_color: str) -> tuple[str, ...]:
    """The blocks of `block_color`: the ones is_goal asks about."""
    return tuple(
        b for b in _entities(listing).blocks if b.startswith(f"{block_color} block")
    )


@dataclass(frozen=True)
class BlocksState(SymbolicState):
    """Entity listing (render order) plus block -> bowl placements."""

    listing: tuple[str, ...]
    placements: tuple[tuple[str, str], ...]

    env_id = "blocks"

    @property
    def entities(self) -> _Entities:
        """The listing's entity tables, looked up on first use."""
        entities = self.__dict__.get("_entities")
        if entities is None:
            entities = self.__dict__["_entities"] = _entities(self.listing)
        return entities

    @property
    def blocks(self) -> tuple[str, ...]:
        return self.entities.blocks

    @property
    def bowls(self) -> tuple[str, ...]:
        return self.entities.bowls

    @property
    def placed(self) -> dict[str, str]:
        """block -> bowl, built on first use (without cached_property's lock)."""
        placed = self.__dict__.get("_placed")
        if placed is None:
            placed = self.__dict__["_placed"] = dict(self.placements)
        return placed


class BlocksEnv(Environment):
    env_id = "blocks"

    def sample_episode(self, seed: int, split: str) -> EpisodeSpec:
        self.check_seed_split(seed, split)
        rng = random.Random(f"blocks|{split}|{seed}")
        if split == "test-generalize":
            goal_block_color, goal_bowl_color = rng.sample(HELD_OUT_COLORS, 2)
        else:
            goal_block_color, goal_bowl_color = rng.sample(COLORS, 2)
        n_blocks = rng.randint(3, 5)
        n_bowls = rng.randint(3, 5)
        n_goal_blocks = rng.randint(1, n_blocks)
        n_goal_bowls = rng.randint(1, n_bowls)
        other = [c for c in COLORS if c not in (goal_block_color, goal_bowl_color)]
        block_colors = [goal_block_color] * n_goal_blocks + [
            rng.choice(other) for _ in range(n_blocks - n_goal_blocks)
        ]
        bowl_colors = [goal_bowl_color] * n_goal_bowls + [
            rng.choice(other) for _ in range(n_bowls - n_goal_bowls)
        ]
        listing = self._numbered(bowl_colors, "bowl") + self._numbered(
            block_colors, "block"
        )
        goal_entities = [
            e
            for e in listing
            if e.startswith(f"{goal_bowl_color} bowl")
            or e.startswith(f"{goal_block_color} block")
        ]
        distractors = [e for e in listing if e not in goal_entities]
        rng.shuffle(distractors)
        state = BlocksState(
            listing=tuple(goal_entities + distractors), placements=()
        )
        goal = GoalSpec(
            text=f"put the {goal_block_color} blocks in {goal_bowl_color} bowls",
            predicate=("blocks_in_bowls", goal_block_color, goal_bowl_color),
        )
        return EpisodeSpec(
            env_id=self.env_id,
            goal=goal,
            init_obs=self.render_observation(state),
            init_state=state,
            split=split,
            seed=seed,
            max_steps=DEFAULT_MAX_STEPS,
        )

    @staticmethod
    def _numbered(colors: list[str], kind: str) -> list[str]:
        counts: dict[str, int] = {}
        names = []
        for color in colors:
            counts[color] = counts.get(color, 0) + 1
            names.append(f"{color} {kind} {counts[color]}")
        return names

    def _vocabulary(self, spec: EpisodeSpec) -> list[ActionInstance]:
        state: BlocksState = spec.init_state
        actions = [
            ActionInstance.from_text(
                f"put {block} in {bowl}", op=("put", block, bowl)
            )
            for block in state.blocks
            for bowl in state.bowls
        ]
        actions.append(ActionInstance.from_text(DONE_TEXT, op=("done",), is_done=True))
        return actions

    def _move_violation(self, state: BlocksState, action: ActionInstance) -> str | None:
        if action.op not in state.entities.puts:
            raise ContractError(f"foreign action {action.text!r}")
        block = action.op[1]
        if block in state.placed:
            return f"{block} is already in a bowl"
        return None

    def applicable(self, state, goal, actions) -> list[ActionInstance]:
        """The base filter with the put rule inlined, so the state's entity
        tables and placements are read once per call, not once per action."""
        puts = state.entities.puts
        placed = state.placed
        out = []
        for action in actions:
            if action.is_done:
                if self.violation(state, goal, action) is None:
                    out.append(action)
            elif action.op not in puts:
                raise ContractError(f"foreign action {action.text!r}")
            elif action.op[1] not in placed:
                out.append(action)
        return out

    def _apply(self, state: BlocksState, action: ActionInstance) -> BlocksState:
        placements = tuple(
            sorted(state.placements + ((action.op[1], action.op[2]),))
        )
        return BlocksState(listing=state.listing, placements=placements)

    def is_goal(self, state, goal) -> bool:
        _, block_color, bowl_color = goal.predicate
        placed = state.placed
        goal_bowl = f"{bowl_color} bowl"
        for block in _goal_blocks(state.listing, block_color):
            bowl = placed.get(block)
            if bowl is None or not bowl.startswith(goal_bowl):
                return False
        return True

    def render_observation(self, state: BlocksState) -> str:
        sentences = ["there is a " + ", ".join(state.listing) + "."]
        for block, bowl in state.placements:
            sentences.append(f"the {block} is in the {bowl}.")
        return " ".join(sentences)

    def state_to_json(self, state: BlocksState) -> dict:
        return {
            "listing": list(state.listing),
            "placements": [list(p) for p in state.placements],
        }

    def state_from_json(self, payload: dict) -> BlocksState:
        return BlocksState(
            listing=tuple(payload["listing"]),
            placements=tuple(tuple(p) for p in payload["placements"]),
        )
