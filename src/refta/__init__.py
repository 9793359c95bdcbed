"""Retrieval-augmented draft-refinement engine for Latin-to-English MT.

The pipeline drafts a translation with a specialized NMT backend, retrieves
semantically similar Latin neighbors from a vector index, assembles a
refinement prompt around the draft and neighbor exemplars, and obtains the
final translation from an LLM backend. Evaluation (BLEU, chrF++, paired
bootstrap) and token-based cost accounting are built in.
"""

__version__ = "0.1.0"
