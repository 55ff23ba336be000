import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_of_fresh_rates_runs(tmp_path):
    # the same tree on both sides: one pair of fresh default rates runs, each with its own
    # peak RSS, a reference-scaled time and the digests of the same two outputs
    out = tmp_path / "fresh.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "fresh_defaults.py"), "--parent", str(ROOT),
                    "--change", str(ROOT), "--pairs", "1", "--experiments", "rates", "--out", str(out)],
                   check=True, timeout=120)
    report = json.loads(out.read_text())
    runs = report["runs"]
    assert [(r["pair"], r["side"], r["experiment"], r["exit"]) for r in runs] == [
        (0, "parent", "rates", 0), (0, "change", "rates", 0)]
    assert all(r["maxrss_mib"] > 10 and r["wall_s"] > 0 and r["scaled_wall_s"] > 0 for r in runs)
    assert sorted(runs[0]["sha256"]) == ["manifest.json", "rates.csv"]
    assert runs[0]["sha256"] == runs[1]["sha256"]
    assert report["summary"]["rates"]["same_sha256"] is True
    assert report["host"]["nproc"] >= 1 and report["host"]["affinity"]
