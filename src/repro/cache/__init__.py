"""Content-addressed, integrity-verified result cache.

``repro.cache`` promotes the resume journal's artifact digests into a
shared result pool: any (config, test, seed, view) run that has ever
executed against a semantically identical design cone is a cache hit,
verified on read and never served when torn or corrupt.  See
:mod:`repro.cache.store` for the storage contract.
"""

from .store import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA,
    DESIGN_ROOTS,
    DIAGNOSTIC_SCHEMA,
    CacheDiagnostic,
    CacheStats,
    ResultCache,
    cache_key,
    design_source_hash,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA",
    "DESIGN_ROOTS",
    "DIAGNOSTIC_SCHEMA",
    "CacheDiagnostic",
    "CacheStats",
    "ResultCache",
    "cache_key",
    "design_source_hash",
]
