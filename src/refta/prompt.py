"""Refiner prompt assembly with token budgeting.

The template text lives in this module's constants and nowhere else; golden
renders under ``fixtures/prompts/`` snapshot the assembled output. Three
conditions are supported:

- ``zero_shot``: the plain baseline instruction followed by the source.
- ``draft_only``: the revision instruction, the source and the draft.
- ``rag``: as ``draft_only`` plus one ``[EXi] LATIN / [EXi] DRAFT`` pair per
  retrieved neighbor, in retrieval order.

The estimated input size is ``estimate_tokens(system) +
estimate_tokens(user)``. When it exceeds the budget ceiling, whole neighbors
are dropped from the end of the list (least similar first) until the prompt
fits; if it still does not fit with zero neighbors the source itself is too
long and a :class:`PromptBudgetError` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from refta.backends import estimate_tokens
from refta.errors import PromptBudgetError

ZERO_SHOT = "zero_shot"
DRAFT_ONLY = "draft_only"
RAG = "rag"
CONDITIONS = (ZERO_SHOT, DRAFT_ONLY, RAG)

SYSTEM_TEMPLATE = (
    "You are an expert classicist translator. Produce ONE faithful, "
    "English translation. Preserve case roles and polarity. No extra text."
)
REVISION_INSTRUCTION = (
    "- Revise the Draft Translation to be a more accurate and fluent "
    "version of the Latin source text."
)
LATIN_LABEL = "Latin text:"
DRAFT_LABEL = "NMT draft (NLLB):"
GUIDANCE_HEADER = "Use the Analogous examples for guidance:"
FINAL_LABEL = "Final translation:"
BASELINE_INSTRUCTION = "Translate the following Latin text to English:"

DEFAULT_INPUT_BUDGET = 1300


@dataclass(frozen=True)
class NeighborExample:
    # field order is the key order of a neighbor in records.jsonl
    segment_id: str
    latin: str
    draft: str
    cosine_similarity: float
    jaccard: float

    def __post_init__(self):
        if not self.latin or not self.draft:
            raise ValueError(f"neighbor '{self.segment_id}' needs non-empty latin and draft")


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    user_text: str
    neighbors_used: tuple[NeighborExample, ...]
    estimated_input_tokens: int
    truncation_applied: str  # "none" or "dropped-neighbors(n)"


def _user_text(latin: str, draft: str | None, neighbors: tuple[NeighborExample, ...]) -> str:
    blocks = [
        REVISION_INSTRUCTION,
        f"{LATIN_LABEL} {latin}",
        f"{DRAFT_LABEL} {draft}",
    ]
    if neighbors:
        lines = [GUIDANCE_HEADER]
        for i, nb in enumerate(neighbors, start=1):
            lines.append(f"[EX{i}] LATIN: {nb.latin}")
            lines.append(f"[EX{i}] DRAFT: {nb.draft}")
        blocks.append("\n".join(lines))
    blocks.append(FINAL_LABEL)
    return "\n\n".join(blocks)


def assemble_prompt(
    latin: str,
    draft: str | None,
    neighbors: list[NeighborExample] | tuple[NeighborExample, ...],
    condition: str,
    budget_ceiling: int = DEFAULT_INPUT_BUDGET,
) -> PromptBundle:
    """Build the refiner prompt for one segment under a token budget."""
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition: {condition!r}")
    if not latin:
        raise ValueError("latin source must be non-empty")
    neighbors = tuple(neighbors)

    if condition == ZERO_SHOT:
        if draft is not None or neighbors:
            raise ValueError("zero_shot takes no draft and no neighbors")
        system, render = "", lambda kept: f"{BASELINE_INSTRUCTION}\n{latin}"
    else:
        if not draft:
            raise ValueError(f"{condition} requires a draft")
        if condition == DRAFT_ONLY and neighbors:
            raise ValueError("draft_only takes no neighbors")
        system, render = SYSTEM_TEMPLATE, lambda kept: _user_text(latin, draft, kept)

    kept = neighbors  # neighbors are dropped from the end until the prompt fits
    while True:
        user = render(kept)
        est = estimate_tokens(system) + estimate_tokens(user)
        if est <= budget_ceiling:
            break
        if not kept:
            raise PromptBudgetError(est, budget_ceiling)
        kept = kept[:-1]
    dropped = len(neighbors) - len(kept)
    truncation = "none" if dropped == 0 else f"dropped-neighbors({dropped})"
    return PromptBundle(system, user, kept, est, truncation)


def render_golden(bundle: PromptBundle) -> str:
    """Canonical byte-stable serialization used for golden-file snapshots."""
    return bundle.system_text + "\n" + "-" * 8 + "\n" + bundle.user_text + "\n"
