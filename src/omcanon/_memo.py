"""The one owner of module-level memos: unbounded tables, named
module.qualname, that live as long as the process.  `clear_caches` empties
them together, since forms memoized in one table live in algebras memoized
in another; it must not run during a computation, and elements built before
it do not mix with elements built after."""

from functools import lru_cache

_TABLES: dict = {}


def memo(fn):
    """fn behind an unbounded lru_cache, registered as module.qualname."""
    table = lru_cache(maxsize=None)(fn)
    _TABLES[f"{fn.__module__}.{fn.__qualname__}"] = table
    return table


def clear_caches() -> None:
    for table in _TABLES.values():
        table.cache_clear()


def cache_sizes() -> dict:
    """{table name: entries} over every memo."""
    return {name: t.cache_info().currsize for name, t in _TABLES.items()}
