from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, render_golden
from refta.backends import estimate_tokens
from refta.errors import PromptBudgetError
from refta.prompt import (
    GUIDANCE_HEADER,
    NeighborExample,
    REVISION_INSTRUCTION,
    assemble_prompt,
)

GOLDEN_DIR = FIXTURES / "prompts"


def _neighbor(i: int, sim: float, latin=None, draft=None) -> NeighborExample:
    return NeighborExample(
        latin=latin or f"Senatus populusque romanus bellum gerunt {i}.",
        draft=draft or f"[draft]The senate and the roman people wage war {i}.",
        segment_id=f"ret{i:03d}",
        cosine_similarity=sim,
        jaccard=0.5,
    )


def _golden_neighbors():
    return [
        NeighborExample(
            latin=f"Senatus populusque romanus bellum gerunt {i}.",
            draft=f"[draft]The senate and the roman people wage war {i}.",
            segment_id=f"ret{i:03d}",
            cosine_similarity=round(0.95 - 0.07 * i, 4),
            jaccard=round(0.8 - 0.1 * i, 4),
        )
        for i in range(1, 6)
    ]


LATIN = "Gallia est omnis divisa in partes tres."
DRAFT = "[draft]Gaul is all divided into three parts."


class TestGoldenFiles:
    def test_zero_shot(self):
        bundle = assemble_prompt(LATIN, None, [], "zero_shot")
        golden = (GOLDEN_DIR / "zero_shot.txt").read_text(encoding="utf-8")
        assert render_golden(bundle) == golden

    def test_draft_only(self):
        bundle = assemble_prompt(LATIN, DRAFT, [], "draft_only")
        golden = (GOLDEN_DIR / "draft_only.txt").read_text(encoding="utf-8")
        assert render_golden(bundle) == golden

    def test_rag_k5(self):
        bundle = assemble_prompt(LATIN, DRAFT, _golden_neighbors(), "rag")
        golden = (GOLDEN_DIR / "rag_k5.txt").read_text(encoding="utf-8")
        assert render_golden(bundle) == golden

    def test_render_sensitivity(self):
        neighbors = _golden_neighbors()
        a = render_golden(assemble_prompt(LATIN, DRAFT, neighbors, "rag"))
        changed = neighbors[:4] + [NeighborExample(
            latin=neighbors[4].latin,
            draft="[draft]Something altogether different.",
            segment_id=neighbors[4].segment_id,
            cosine_similarity=neighbors[4].cosine_similarity,
            jaccard=neighbors[4].jaccard,
        )]
        b = render_golden(assemble_prompt(LATIN, DRAFT, changed, "rag"))
        assert a != b


class TestTemplateFidelity:
    def test_verbatim_substrings(self):
        bundle = assemble_prompt(LATIN, DRAFT, _golden_neighbors(), "rag")
        rendered = bundle.system_text + "\n" + bundle.user_text
        assert "You are an expert classicist translator" in rendered
        assert "Produce ONE faithful," in rendered
        assert "Preserve case roles and polarity. No extra text." in rendered
        assert "NMT draft (NLLB):" in rendered
        assert "Final translation:" in rendered
        assert "Use the Analogous examples for guidance:" in rendered
        assert REVISION_INSTRUCTION in bundle.user_text

    def test_zero_shot_baseline_instruction(self):
        bundle = assemble_prompt("Gallia est", None, [], "zero_shot")
        assert bundle.user_text == "Translate the following Latin text to English:\nGallia est"
        assert bundle.system_text == ""

    def test_exactly_k_example_blocks(self):
        for k in (1, 3, 5):
            neighbors = _golden_neighbors()[:k]
            bundle = assemble_prompt(LATIN, DRAFT, neighbors, "rag")
            assert bundle.user_text.count("] LATIN:") == k
            assert bundle.user_text.count("] DRAFT:") == k
            labels = re.findall(r"\[EX(\d+)\]", bundle.user_text)
            assert labels == [str(i) for i in range(1, k + 1) for _ in (0, 1)]

    def test_latin_appears_exactly_once(self):
        bundle = assemble_prompt(LATIN, DRAFT, _golden_neighbors(), "rag")
        assert bundle.user_text.count(LATIN) == 1
        assert bundle.user_text.count(DRAFT) == 1

    def test_neighbor_order_preserved(self):
        neighbors = _golden_neighbors()
        bundle = assemble_prompt(LATIN, DRAFT, neighbors, "rag")
        positions = [bundle.user_text.index(nb.latin) for nb in neighbors]
        assert positions == sorted(positions)

    def test_condition_subsumption(self):
        # deleting the retrieval-example section of the rag prompt yields the
        # draft_only prompt byte for byte
        rag = assemble_prompt(LATIN, DRAFT, _golden_neighbors(), "rag")
        draft_only = assemble_prompt(LATIN, DRAFT, [], "draft_only")
        lines = [
            line for line in rag.user_text.split("\n")
            if not line.startswith("[EX") and line != GUIDANCE_HEADER
        ]
        stripped = re.sub(r"\n{3,}", "\n\n", "\n".join(lines))
        assert stripped == draft_only.user_text


class TestBudget:
    def _big_neighbors(self, n: int, chars: int = 600):
        return [
            _neighbor(i, 0.9 - 0.01 * i,
                      latin="lorem " * (chars // 6),
                      draft="ipsum " * (chars // 6))
            for i in range(1, n + 1)
        ]

    def test_within_budget_untouched(self):
        bundle = assemble_prompt(LATIN, DRAFT, _golden_neighbors(), "rag",
                                 budget_ceiling=1300)
        assert bundle.truncation_applied == "none"
        assert len(bundle.neighbors_used) == 5

    def test_over_budget_drops_least_similar(self):
        neighbors = self._big_neighbors(5)
        bundle = assemble_prompt(LATIN, DRAFT, neighbors, "rag", budget_ceiling=1300)
        assert bundle.estimated_input_tokens <= 1300
        n_kept = len(bundle.neighbors_used)
        assert 0 < n_kept < 5
        assert bundle.truncation_applied == f"dropped-neighbors({5 - n_kept})"
        # survivors are the highest-similarity prefix of the input order
        assert bundle.neighbors_used == tuple(neighbors[:n_kept])

    def test_budget_error_when_source_too_long(self):
        with pytest.raises(PromptBudgetError):
            assemble_prompt("verbum " * 2000, "draft " * 10, [], "rag",
                            budget_ceiling=1300)

    def test_estimate_matches_parts(self):
        bundle = assemble_prompt(LATIN, DRAFT, [], "draft_only")
        expected = estimate_tokens(bundle.system_text) + estimate_tokens(bundle.user_text)
        assert bundle.estimated_input_tokens == expected

    @settings(max_examples=100, deadline=None)
    @given(
        n_neighbors=st.integers(0, 6),
        text_len=st.integers(20, 900),
        ceiling_low=st.integers(150, 900),
        extra=st.integers(1, 600),
    )
    def test_monotone_in_ceiling(self, n_neighbors, text_len, ceiling_low, extra):
        neighbors = self._big_neighbors(n_neighbors, chars=text_len)
        def kept(ceiling):
            try:
                return len(assemble_prompt(LATIN, DRAFT, neighbors, "rag",
                                           budget_ceiling=ceiling).neighbors_used)
            except PromptBudgetError:
                return -1
        assert kept(ceiling_low) <= kept(ceiling_low + extra)
