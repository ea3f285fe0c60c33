import json
import os

from mongeval.cli import write_json_atomic


def test_write_json_atomic(tmp_path):
    path = os.path.join(tmp_path, "sub", "report.json")
    write_json_atomic(path, {"b": 1, "a": [1, 2]})
    with open(path) as fh:
        text = fh.read()
    assert json.loads(text) == {"a": [1, 2], "b": 1}
    # idempotent rewrite is byte-identical and leaves no temp litter
    write_json_atomic(path, {"b": 1, "a": [1, 2]})
    with open(path) as fh:
        assert fh.read() == text
    assert os.listdir(os.path.dirname(path)) == ["report.json"]
