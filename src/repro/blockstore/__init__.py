"""Log-block splitting, archive blob storage and ranged-I/O helpers."""

from .blobsource import BlobSource, BytesBlobSource, StoreBlobSource, coalesce_extents
from .block import DEFAULT_BLOCK_BYTES, LogBlock, block_from_text, split_lines
from .index import INDEX_AUX_NAME, ArchiveIndex, BlockSummary
from .remote import FaultProfile, RemoteStore, RemoteStoreError
from .store import ArchiveStore, MemoryStore

__all__ = [
    "LogBlock",
    "split_lines",
    "block_from_text",
    "DEFAULT_BLOCK_BYTES",
    "ArchiveStore",
    "MemoryStore",
    "RemoteStore",
    "RemoteStoreError",
    "FaultProfile",
    "BlobSource",
    "BytesBlobSource",
    "StoreBlobSource",
    "coalesce_extents",
    "ArchiveIndex",
    "BlockSummary",
    "INDEX_AUX_NAME",
]
