"""Every input file labankit reads is refused the same way when it is
missing, is not UTF-8 text or is not valid JSON: a ValueError that starts
with the path and names it once, and, through the command that reads it,
exit code 2, or for a skeleton file inside extract, a logged failure of
that file alone."""

import json

import pytest

from labankit import (RegimeSpec, generate, load_manifest, load_model, load_sequence,
                      read_features_csv, save_sequence)
from labankit.cli import _COMMANDS, _read_config, main


def _extract_with(bad, tmp_path):
    """extract over a manifest of the bad file and a valid one."""
    good = tmp_path / "good.skel"
    save_sequence(generate(RegimeSpec(0, duration_s=5.0, seed=0), source_id="good"), good)
    manifest = tmp_path / "two.jsonl"
    manifest.write_text("".join(json.dumps({"path": str(path), "tier": 0}) + "\n"
                                for path in (bad, good)))
    return ["extract", "--manifest", manifest, "--out", tmp_path / "out.csv"]


# Reader -> (file suffix, reader, reads JSON, command that reads the file).
READERS = {
    "skeleton-json": (".json", load_sequence, True, _extract_with),
    "skeleton-container": (".skel", load_sequence, False, _extract_with),
    "manifest": (".jsonl", load_manifest, True,
                 lambda bad, tmp: ["extract", "--manifest", bad, "--out", tmp / "out.csv"]),
    "model": (".json", load_model, True,
              lambda bad, tmp: ["predict", "--model", bad, "--features", tmp / "f.csv",
                                "--out", tmp / "p.csv"]),
    "config-echo": (".config.json",
                    lambda path: _read_config(path, "train", _COMMANDS["train"][1]), True,
                    lambda bad, tmp: ["train", "--config", bad]),
    "feature-csv": (".csv", read_features_csv, False,
                    lambda bad, tmp: ["train", "--features", bad, "--out", tmp / "m.json"]),
}
# Content -> (file bytes, or None for no file; the reason given).
CONTENTS = {
    "missing": (None, "No such file or directory"),
    "undecodable": (b"\xff", "not UTF-8 text: "),
    "truncated-json": (b'{"format_version": 1, "sou', "invalid JSON: "),
}
CASES = [(reader, content) for reader in READERS for content in CONTENTS
         if READERS[reader][2] or content != "truncated-json"]


def _bad_file(tmp_path, reader, content):
    path = tmp_path / f"input{READERS[reader][0]}"
    data, reason = CONTENTS[content]
    if data is not None:
        path.write_bytes(data)
    if reader == "skeleton-container" and content == "undecodable":
        reason = "invalid header line: "  # the header line has its own parse
    return path, reason


@pytest.mark.parametrize("reader, content", CASES)
def test_a_bad_input_file_is_refused_naming_its_path_once(tmp_path, reader, content):
    path, reason = _bad_file(tmp_path, reader, content)
    with pytest.raises(ValueError) as err:
        READERS[reader][1](path)
    message = str(err.value)
    assert message.startswith(f"{path}:") and message.count(str(path)) == 1
    assert reason in message


@pytest.mark.parametrize("reader, content", CASES)
def test_a_command_refuses_a_bad_input_file_naming_its_path_once(tmp_path, capsys,
                                                                 reader, content):
    path, reason = _bad_file(tmp_path, reader, content)
    argv = READERS[reader][3](path, tmp_path)
    code = main([str(arg) for arg in argv])
    err = capsys.readouterr().err
    assert f"error: {path}:" in err and err.count(str(path)) == 1
    assert reason in err
    if READERS[reader][3] is _extract_with:  # the file fails, the other is described
        assert code == 1
        log = (tmp_path / "out.csv.errors.log").read_text()
        assert log.startswith(f"{path}\t") and reason in log
        assert read_features_csv(tmp_path / "out.csv").source_ids == ("good",)
    else:
        assert code == 2
