"""Replay the frozen CLI corpus (`tests/data/cli_corpus.json`) in-process:
every command's exit code, stdout and stderr must hash as they did when the
corpus was generated by `tests/data/make_cli_corpus.py`."""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

_spec = importlib.util.spec_from_file_location("make_cli_corpus", DATA / "make_cli_corpus.py")
make_cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_cli_corpus)


def test_corpus_lists_the_generator_commands():
    corpus = json.loads(make_cli_corpus.CORPUS.read_text())
    assert [c["argv"] for c in corpus] == make_cli_corpus.commands()


def test_cli_corpus_replays(tmp_path, monkeypatch):
    corpus = json.loads(make_cli_corpus.CORPUS.read_text())
    make_cli_corpus.write_documents(tmp_path)
    monkeypatch.chdir(tmp_path)
    for frozen in corpus:
        got = make_cli_corpus.run(frozen["argv"])
        assert got == frozen, f"first differing command: ballflow {' '.join(frozen['argv'])}"
