"""Golden check of the demo experiment.

``configs/demo.cfg`` must reproduce the committed ``report.txt`` byte for
byte, and every hypothesis and reference file must match its committed
SHA-256 digest. A change that claims identical outputs is held to this;
a change that moves the demo on purpose regenerates the golden files with
``fusedec experiment --config configs/demo.cfg --out DIR`` (with
``FUSEDEC_SEED`` unset) and says why.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from fusedec.cli import cli_main
from fusedec.harness import SEED_ENV_VAR

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_demo_report_and_outputs_match_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out = tmp_path / "demo"
    assert cli_main(["experiment", "--config", str(ROOT / "configs" / "demo.cfg"),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "report.txt").read_bytes() == (GOLDEN / "demo_report.txt").read_bytes()

    expected = {}
    for line in (GOLDEN / "demo_outputs.sha256").read_text().splitlines():
        digest, name = line.split()
        expected[name] = digest
    produced = sorted(p.name for p in out.glob("hyps_*")) + sorted(
        p.name for p in out.glob("refs_*")
    )
    assert sorted(produced) == sorted(expected)
    for name in produced:
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected[name], name
