"""Work that depends on the frequency box alone is kept by one store,
trig._keep_last: no module of the library keeps such work in a cache of
its own, so the policy (the last _KEPT keys per builder, the oldest
dropped before a build) lives in one place.  The library runs on one
Python thread and starts no pool of its own; _keep_last's lock serves
callers that share it between their threads."""

import ast
import threading
import time
import weakref
from pathlib import Path

import pytest

from womplab import trig

SRC = Path(__file__).resolve().parents[1] / "src" / "womplab"


def own_caches(source):
    """(line, name) of each lru_cache or cache_clear name, attribute or
    import, and of each OrderedDict() call outside a function _keep_last."""
    tree = ast.parse(source)
    store = {id(node) for top in ast.walk(tree)
             if isinstance(top, ast.FunctionDef) and top.name == "_keep_last"
             for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in ("lru_cache", "cache_clear"):
            found.append((node.lineno, name))
        if isinstance(node, ast.Call) and id(node) not in store:
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) == "OrderedDict":
                found.append((node.lineno, "OrderedDict()"))
    return sorted(found)


def test_the_check_finds_own_caches():
    source = ("from functools import lru_cache\n"
              "@functools.lru_cache(maxsize=1)\n"
              "def f(box):\n"
              "    f.cache_clear()\n"
              "_kept = collections.OrderedDict()\n"
              "def g():\n"
              "    return OrderedDict()\n"
              "def _keep_last(build):\n"
              "    kept = collections.OrderedDict()\n"
              "kept_tables = cache_info = OrderedDict\n")
    assert own_caches(source) == [(1, "lru_cache"), (2, "lru_cache"),
                                  (4, "cache_clear"), (5, "OrderedDict()"),
                                  (7, "OrderedDict()")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_box_work_is_kept_by_keep_last_alone(path):
    assert own_caches(path.read_text()) == []


def pool_imports(source):
    """(line, module) of each import of concurrent.futures or multiprocessing."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom)
                 else [])
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] in ("concurrent", "multiprocessing")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_thread_or_process_pool(path):
    # a thread pool measured slower than the serial rate sweep (e95ac80)
    assert pool_imports(path.read_text()) == []


class Value:
    pass


def test_a_build_sees_at_most_one_other_value_and_a_hit_is_the_kept_one():
    live, seen = weakref.WeakSet(), []

    @trig._keep_last
    def build(key):
        seen.append((len(build.kept), len(live)))
        live.add(value := Value())
        return value

    first = build(1)
    assert build(1) is first
    del first
    for key in (2, 3, 1, 3, 2, 4, 4, 1):
        build(key)
    assert list(build.kept) == [(4,), (1,)]
    # while a value is built, one other is kept and no dropped one lives on
    assert max(seen) == (trig._KEPT - 1, trig._KEPT - 1)
    seen.clear()

    # misses in several threads at once: the lock makes them build in turn
    def run(key):
        for _ in range(3):
            build(key)
            time.sleep(1e-4)

    threads = [threading.Thread(target=run, args=(key,)) for key in (5, 6, 7, 8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen and max(kept for kept, _ in seen) <= trig._KEPT - 1
