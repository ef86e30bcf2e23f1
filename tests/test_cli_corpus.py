"""Replay the frozen CLI corpus (`tests/data/cli_corpus.json`) in-process:
every command's exit code, stdout and stderr must hash as they did when the
corpus was generated by `tests/data/make_cli_corpus.py`.  With
BALLFLOW_DEEP=1 the deep tier (`tests/data/cli_corpus_deep.json`, commands
at 2,028 and 3,967 unit edges) replays too."""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"

_spec = importlib.util.spec_from_file_location("make_cli_corpus", DATA / "make_cli_corpus.py")
make_cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_cli_corpus)


def test_corpus_lists_the_generator_commands():
    corpus = json.loads(make_cli_corpus.CORPUS.read_text())
    assert [c["argv"] for c in corpus] == make_cli_corpus.commands()


def replay(path: Path, documents: dict, directory: Path, monkeypatch) -> None:
    corpus = json.loads(path.read_text())
    make_cli_corpus.write_documents(directory, documents)
    monkeypatch.chdir(directory)
    for frozen in corpus:
        got = make_cli_corpus.run(frozen["argv"])
        assert got == frozen, f"first differing command: ballflow {' '.join(frozen['argv'])}"


def test_cli_corpus_replays(tmp_path, monkeypatch):
    replay(make_cli_corpus.CORPUS, make_cli_corpus.DOCUMENTS, tmp_path, monkeypatch)


@pytest.mark.skipif(not make_cli_corpus.DEEP, reason="set BALLFLOW_DEEP=1")
def test_deep_cli_corpus_replays(tmp_path, monkeypatch):
    corpus = json.loads(make_cli_corpus.DEEP_CORPUS.read_text())
    assert [c["argv"] for c in corpus] == make_cli_corpus.deep_commands()
    replay(make_cli_corpus.DEEP_CORPUS, make_cli_corpus.DEEP_DOCUMENTS, tmp_path, monkeypatch)
