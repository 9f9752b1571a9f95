"""The content-addressed cell cache: keys, replay, invalidation, corruption.

The honesty contract: a cache hit replays the *identical* record (so the
gate's comparison still runs against real data), a source-tree change
invalidates every key, and a corrupt entry is a counted miss that falls
back to a live run -- never a silent green.
"""

import json

import pytest

from repro.bench.cellcache import (
    CellCache,
    cache_enabled,
    environment_fingerprint,
    source_tree_digest,
)
from repro.bench.executor import run_cells
from repro.bench import GATES
from repro.bench.cellrunner import get_family
from repro.bench.regression import run_cell

CELL_ID = "fig6:hdf4:2"


def _cache(tmp_path, tree="sha256:feed", env="python=3;numpy=2"):
    return CellCache(root=tmp_path / "cache", tree_digest=tree,
                     env_fingerprint=env)


def _one_cell():
    (cell,) = GATES["regress"].select([CELL_ID])
    return cell


# -- keys ---------------------------------------------------------------------


def test_key_is_stable_and_spec_sensitive(tmp_path):
    cache = _cache(tmp_path)
    spec = {"figure": "fig6", "strategy": "hdf4", "nprocs": 2}
    assert cache.key("regress", spec) == cache.key("regress", dict(spec))
    assert cache.key("regress", spec) != cache.key("scale", spec)
    assert cache.key("regress", spec) != cache.key(
        "regress", dict(spec, nprocs=4)
    )


def test_key_changes_with_tree_digest(tmp_path):
    spec = {"figure": "fig6"}
    a = _cache(tmp_path, tree="sha256:aaaa").key("regress", spec)
    b = _cache(tmp_path, tree="sha256:bbbb").key("regress", spec)
    assert a != b


def test_key_changes_with_environment(tmp_path):
    spec = {"figure": "fig6"}
    a = _cache(tmp_path, env="python=3.11.0;numpy=1.26").key("regress", spec)
    b = _cache(tmp_path, env="python=3.12.0;numpy=1.26").key("regress", spec)
    assert a != b


def test_source_tree_digest_covers_repro_sources():
    digest = source_tree_digest()
    assert digest.startswith("sha256:")
    # stable across calls (lru-cached and content-addressed)
    assert digest == source_tree_digest()


def test_source_tree_perturbation_invalidates(tmp_path):
    # the digest is content-addressed: two copies of the tree hash alike
    # wherever they live, and a single appended comment line in one file
    # changes the whole digest (digests are lru-cached per path, so each
    # copy gets its own root)
    import pathlib
    import shutil

    import repro

    src = pathlib.Path(repro.__file__).parent
    pristine = tmp_path / "pristine" / "repro"
    perturbed = tmp_path / "perturbed" / "repro"
    for copy in (pristine, perturbed):
        shutil.copytree(src, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
    victim = perturbed / "bench" / "regression.py"
    victim.write_text(victim.read_text() + "\n# perturbed\n")
    assert source_tree_digest(str(pristine)) != source_tree_digest(
        str(perturbed)
    )


def test_environment_fingerprint_names_python_and_numpy():
    fp = environment_fingerprint()
    assert fp.startswith("python=")
    assert "numpy=" in fp


# -- get/put round trip -------------------------------------------------------


def test_put_get_roundtrip(tmp_path):
    cache = _cache(tmp_path)
    key = cache.key("regress", {"x": 1})
    record = {"write_bw": 1.5, "trace_digest": "sha256:abc"}
    cache.put(key, CELL_ID, record)
    assert cache.get(key) == record


def test_get_missing_is_none(tmp_path):
    cache = _cache(tmp_path)
    assert cache.get(cache.key("regress", {"x": 1})) is None


@pytest.mark.parametrize("garbage", [
    "not json at all",
    "[]",
    json.dumps({"schema": 999, "key": "k", "record": {}}),
    json.dumps({"schema": 1, "key": "WRONG", "record": {}}),
    json.dumps({"schema": 1, "key": "k", "record": "not-a-dict"}),
])
def test_corrupt_entry_is_dropped(tmp_path, garbage):
    cache = _cache(tmp_path)
    key = cache.key("regress", {"x": 1})
    cache.put(key, CELL_ID, {"ok": True})
    path = cache.root / f"{key}.json"
    path.write_text(garbage)
    assert cache.get(key) is None
    assert cache.corrupt == 1
    assert not path.exists(), "corrupt entry must be unlinked"


# -- executor integration -----------------------------------------------------


@pytest.mark.slow
def test_hit_replays_identical_record(tmp_path):
    cell = _one_cell()
    cache = CellCache(root=tmp_path / "cache",
                      tree_digest=source_tree_digest(),
                      env_fingerprint=environment_fingerprint())
    extras = {cell.id: {"hints": None}}
    cold = run_cells("regress", [cell], extras=extras, cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    warm = run_cells("regress", [cell], extras=extras, cache=cache)
    assert cache.hits == 1
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)
    assert cold[cell.id] == run_cell(cell)


@pytest.mark.slow
def test_corrupt_entry_falls_back_to_live_run(tmp_path):
    cell = _one_cell()
    cache = CellCache(root=tmp_path / "cache",
                      tree_digest=source_tree_digest(),
                      env_fingerprint=environment_fingerprint())
    extras = {cell.id: {"hints": None}}
    cold = run_cells("regress", [cell], extras=extras, cache=cache)
    key = cache.key("regress",
                    cache_spec := _regress_spec(cell))
    entry = cache.root / f"{key}.json"
    assert entry.exists(), f"expected cache entry for spec {cache_spec}"
    entry.write_text("{torn write}")
    live = run_cells("regress", [cell], extras=extras, cache=cache)
    assert cache.corrupt == 1
    assert json.dumps(live, sort_keys=True) == json.dumps(cold, sort_keys=True)


@pytest.mark.slow
def test_tree_digest_change_invalidates_executor_cache(tmp_path):
    cell = _one_cell()
    extras = {cell.id: {"hints": None}}
    a = CellCache(root=tmp_path / "cache", tree_digest="sha256:aaaa",
                  env_fingerprint="e")
    run_cells("regress", [cell], extras=extras, cache=a)
    b = CellCache(root=tmp_path / "cache", tree_digest="sha256:bbbb",
                  env_fingerprint="e")
    run_cells("regress", [cell], extras=extras, cache=b)
    assert (b.hits, b.misses) == (0, 1), "new tree digest must miss"


def _regress_spec(cell) -> dict:
    from dataclasses import asdict

    return dict(asdict(cell), hints=None)


#: The executor wire, one sample per family: the family name plus
#: ``family.spec(cell, extra)`` is the cache identity, so a rename of either
#: silently orphans every cached record.
WIRE_SAMPLES = {
    "regress": ("flashx-particles:mpi-io:8", {
        "figure": "flashx-particles", "strategy": "mpi-io", "nprocs": 8,
        "problem": "flashx-particles", "machine": "origin2000",
        "do_read": True, "read_op": "restart", "hints": None}),
    "scale": ("chiba_city:hdf4:P1024", {
        "machine": "chiba_city", "strategy": "hdf4", "nprocs": 1024}),
    "overlap": ("overlap:chiba_city_local:mpi-io-async:P8", {
        "machine": "chiba_city_local", "sync": "mpi-io",
        "async_": "mpi-io-async", "problem": "AMR64", "nprocs": 8,
        "ncycles": 3}),
}


@pytest.mark.parametrize("name", sorted(WIRE_SAMPLES))
def test_family_wire_spec_is_pinned(name):
    cell_id, spec = WIRE_SAMPLES[name]
    family = get_family(name)
    cell = GATES[name].matrix[-1]
    assert family.family == name
    assert cell.id == cell_id
    assert family.spec(cell, {}) == spec


def test_perturb_hints_are_part_of_the_regress_spec():
    spec = get_family("regress").spec(
        _one_cell(), {"hints": {"cb_buffer_size": 65536}})
    assert spec["hints"] == {"cb_buffer_size": 65536}


# -- environment switches -----------------------------------------------------


def test_cache_enabled_env_values():
    assert cache_enabled({})
    for off in ("0", "no", "off", "false", "NO", "Off", "FALSE"):
        assert not cache_enabled({"REPRO_CACHE": off})
    assert cache_enabled({"REPRO_CACHE": "1"})


def test_from_env_disabled_returns_none(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert CellCache.from_env() is None
    monkeypatch.delenv("REPRO_CACHE")
    assert CellCache.from_env(disabled=True) is None


def test_from_env_honors_cache_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    cache = CellCache.from_env()
    assert cache is not None
    assert str(cache.root) == str(tmp_path / "elsewhere")
