"""README's CLI examples run as written.

Every command of the ``## CLI`` block runs through ``cli.main`` in one
fresh directory, in order, so later commands read the files earlier ones
wrote.  Each must exit with the code its ``# exit N`` comment names (0
when there is none), and one digest pins what they print and write.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

from whirlknight.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# sha256 over every command's argv, exit code, stdout and stderr, then every
# file written (name and bytes, sorted by name).
DIGEST = "a9c460a642f1232acd8d3df02a11d294c4baa7fed7d9b989bfd05001ae38e694"


def cli_examples():
    """(argv, expected exit code) for each command line of README's CLI block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        code = re.search(r"#\s*exit (\d+)", line)
        yield argv, int(code.group(1)) if code else 0


def test_cli_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = list(cli_examples())
    assert len(examples) >= 10
    digest = hashlib.sha256()
    for argv, code in examples:
        assert argv[0] == "whirlknight"
        got = main(argv[1:])
        out, err = capsys.readouterr()
        assert got == code, f"{shlex.join(argv)} exited {got}, README says {code}:\n{err}"
        digest.update(json.dumps([argv, got, out, err]).encode())
    for path in sorted(tmp_path.iterdir()):
        digest.update(json.dumps(path.name).encode() + path.read_bytes())
    assert digest.hexdigest() == DIGEST
