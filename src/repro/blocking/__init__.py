"""Blocking / filtering substrates (§5.1)."""
from .canopy import canopy_blocks
from .filtering import filtering_blocks
from .lsh import lsh_blocks, purify_block, single_block

BLOCKERS = {
    "lsh": lsh_blocks,
    "filter": filtering_blocks,
    "canopy": canopy_blocks,
    "none": single_block,
}

__all__ = [
    "BLOCKERS", "canopy_blocks", "filtering_blocks", "lsh_blocks",
    "purify_block", "single_block",
]
