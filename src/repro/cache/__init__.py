"""Cache substrates: replacement policies, set-associative caches, directories."""

from .replacement import LruPolicy
from .sa_cache import CacheEntry, SetAssocCache
from .directory import DirectoryEntry, SlicedDirectory

__all__ = [
    "CacheEntry",
    "SetAssocCache",
    "DirectoryEntry",
    "SlicedDirectory",
    "LruPolicy",
]
