"""One corpus walk: ``corpus_files`` finds, spells and orders a corpus's
files exactly as ``sorted(Path(root).glob("**/*.pkl"))``, the dataset-cache
key covers that list, and a miss loads exactly that list."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from conftest import make_trace, write_synthetic_corpus
from repro.features import DatasetCache, assemble_corpus
from repro.features.dataset_cache import MANIFEST_NAME
from repro.ingest import RetryPolicy, corpus_files, load_corpus_pooled
from repro.sim.trace import encode_trace

#: the directory named ``d.pkl`` fails every read; keep its retries fast
FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.002, jitter=0.0)


def _tree(root: Path) -> None:
    """A corpus with every case the walk must treat like the glob."""
    write_synthetic_corpus(root, n_benign=2, n_attack=2)
    blob = (root / "benign_0.pkl").read_bytes()
    files = [
        "shard_0a/x.pkl",
        "shard_0a/nested/y.pkl",  # nested shard directory
        ".x.pkl",  # hidden: the glob matches it
        "d.pkl/inner.pkl",  # inside a directory that itself matches
        # "a.b/..." sorts before "a/..." as a string, after it part by part
        "a/z.pkl",
        "a.b/c.pkl",
    ]
    for rel in files:
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(blob)
    (root / "notes.txt").write_bytes(b"not a trace")
    (root / "a.pkl.bak").write_bytes(blob)
    # a symlinked directory is listed by neither: the glob does not descend it
    (root / "linked").symlink_to(root / "shard_0a", target_is_directory=True)


@pytest.mark.parametrize("spelling", ["absolute", "trailing_slash", "relative", "dot"])
def test_walk_matches_sorted_glob_and_loads_exactly_it(tmp_path, monkeypatch, spelling):
    corpus = tmp_path / "corpus"
    _tree(corpus)
    monkeypatch.chdir(corpus if spelling == "dot" else tmp_path)
    root = {
        "absolute": str(corpus),
        "trailing_slash": str(corpus) + os.sep,
        "relative": "corpus",
        "dot": ".",
    }[spelling]

    expected = [str(p) for p in sorted(Path(root).glob("**/*.pkl"))]
    walk = corpus_files(root)
    assert [f.path for f in walk] == expected
    assert len(expected) == 11  # 4 synthetic + 6 above + the d.pkl directory
    assert [f.rel for f in walk] == [os.path.relpath(p, root) for p in expected]

    for workers in (1, 2):
        results, quarantine = load_corpus_pooled(
            root, workers=workers, retry_policy=FAST_RETRY
        )
        loaded = [r.path for r in results]
        quarantined = [e.path for e in quarantine.entries]
        assert sorted(loaded + quarantined) == sorted(expected)
        assert loaded == [p for p in expected if p in set(loaded)]  # walk order
        # the directory named d.pkl cannot be read: quarantined, not raised
        assert quarantined == [next(p for p in expected if p.endswith("d.pkl"))]
        assert quarantine.entries[0].code == "retry_exhausted"


def test_a_file_landing_after_the_key_sweep_stays_out_of_the_entry(tmp_path, monkeypatch):
    """The key and the load share one walk: a file written after the sweep
    is neither covered by the key nor stored in its entry, so once it is
    gone again the warm run's hit holds only the swept traces."""
    corpus = tmp_path / "corpus"
    write_synthetic_corpus(corpus, n_benign=3, n_attack=3)
    late = corpus / "late.pkl"
    sweep = DatasetCache.corpus_key

    def sweep_then_add(self, trace_dir, **kwargs):
        key = sweep(self, trace_dir, **kwargs)
        late.write_bytes(encode_trace(make_trace(program="late", seed=5)))
        return key

    monkeypatch.setattr(DatasetCache, "corpus_key", sweep_then_add)
    cold = assemble_corpus(corpus, dataset_cache_root=tmp_path / "dc")
    monkeypatch.undo()
    assert late.is_file()
    assert cold.key.files == 6
    assert len(cold.dataset.traces) == 6 and cold.ingest["files"] == 6
    doc = json.loads((cold.cache.entry_dir(cold.key.digest) / MANIFEST_NAME).read_text())
    assert len(doc["traces"]) == 6 and doc["ingest"]["files"] == 6
    # every stored trace's payload digest was found by its load path
    assert all(len(t[5]) == 64 for t in doc["traces"])

    late.unlink()
    warm = assemble_corpus(corpus, dataset_cache_root=tmp_path / "dc")
    assert warm.dataset_cache["hit"] is True
    assert warm.key.digest == cold.key.digest
    assert len(warm.dataset.traces) == 6
