"""Put-blocks-in-bowls task: place every goal-colored block in a goal-colored bowl."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from ..core import ActionInstance, ContractError, GoalSpec
from .base import Environment, EpisodeSpec, SymbolicState

COLORS = ("yellow", "gray", "blue", "red", "green", "orange")
HELD_OUT_COLORS = ("purple", "brown")


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
    done_text = "done placing blocks"
    state_type = BlocksState

    def sample_episode(self, seed: int, split: str) -> EpisodeSpec:
        rng = self._rng(seed, split)
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
        return self._episode(state, goal, split, seed)

    @staticmethod
    def _numbered(colors: list[str], kind: str) -> list[str]:
        counts: dict[str, int] = {}
        names = []
        for color in colors:
            counts[color] = counts.get(color, 0) + 1
            names.append(f"{color} {kind} {counts[color]}")
        return names

    def _moves(self, state: BlocksState) -> list[ActionInstance]:
        return [
            ActionInstance.from_text(
                f"put {block} in {bowl}", op=("put", block, bowl)
            )
            for block in state.blocks
            for bowl in state.bowls
        ]

    def _state_violation(self, state: BlocksState) -> str | None:
        placements = state.placements
        if any(("put", *pair) not in state.entities.puts for pair in placements):
            return f"a placement of {placements} is not a listed block in a listed bowl"
        if list(placements) != sorted(placements):
            return f"placements {placements} are not sorted"
        if len({block for block, _ in placements}) != len(placements):
            return f"a block is placed twice in {placements}"
        return None

    def _move_violation(self, state: BlocksState, action: ActionInstance) -> str | None:
        if action.op not in state.entities.puts:
            raise ContractError(f"foreign action {action.text!r}")
        block = action.op[1]
        if block in state.placed:
            return f"{block} is already in a bowl"
        return None

    def relevant_moves(self, goal, moves) -> list[ActionInstance]:
        """The puts of a goal-colour block into the first goal-colour bowl in
        action order (`[]` when the moves hold no such put).

        This is exact: breadth_first_plan returns the same plan (or None)
        from every start state as it does over all moves.
        - Placements are permanent, so a put of a block the goal ignores is a
          wasted step and a goal block in a bowl of another colour is a dead
          end; no shortest plan takes either.
        - Bowls have no capacity and any goal-colour bowl satisfies the goal,
          so the goal-colour bowls are interchangeable. The BFS returns the
          lexicographically first shortest plan, and at every step its first
          relevant put is `put <first unplaced goal block> in <first goal
          bowl>`, which starts a shortest plan.
        - A start state with a goal block in a bowl of another colour is a
          dead end under either rule, and plan lengths are equal, so the
          `max_steps` cap cuts off the same searches.
        The search from g unplaced goal blocks thus visits at most 2^g states
        instead of (b+1)^g over b goal-colour bowls.
        """
        _, block_color, bowl_color = goal.predicate
        kept = [
            a for a in moves
            if a.op[1].startswith(f"{block_color} block")
            and a.op[2].startswith(f"{bowl_color} bowl")
        ]
        if not kept:
            return []
        first_bowl = min(a.op[2] for a in kept)
        return [a for a in kept if a.op[2] == first_bowl]

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
