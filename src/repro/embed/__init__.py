"""Record embeddings + similarity kernels (MiniLM stand-in)."""
from .hashing import DEFAULT_DIM, embed_batch, embed_text, tokens
from .similarity import cosine, cosine_matrix, jaccard

__all__ = [
    "DEFAULT_DIM", "cosine", "cosine_matrix", "embed_batch", "embed_text",
    "jaccard", "tokens",
]
