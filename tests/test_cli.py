import json
import subprocess
import sys


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "sylowbranch.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_sbc_command():
    r = run_cli("sbc", "--p", "2", "--lambda", "6,2", "--linear", "y=0")
    assert r.returncode == 0
    assert r.stdout == "2\n"


def test_sbc_power_shorthand_partition():
    r = run_cli("sbc", "--p", "2", "--lambda", "8,2,1^6", "--linear", "y=6")
    assert r.returncode == 0
    assert r.stdout == "1\n"


def test_lin_command_hook_form():
    r = run_cli("lin", "--p", "2", "--lambda", "5,3")
    assert r.returncode == 0
    assert r.stdout == "y=1:1, y=2:1\n"


def test_lin_command_digit_form():
    r = run_cli("lin", "--p", "3", "--lambda", "8,1")
    assert r.returncode == 0
    assert r.stdout == "0.1:1, 0.2:1\n"


def test_restrict_tsv():
    r = run_cli("restrict", "--p", "2", "--lambda", "2,2", "--format", "tsv")
    assert r.returncode == 0
    assert r.stdout == "label\tdegree\tmult\n0.0\t1\t1\n1.0\t1\t1\n"
    # orbit labels print their text-least rotation
    r = run_cli("restrict", "--p", "2", "--lambda", "13,3")
    assert "[[0,1].0,[0.0,0.1]]\t16\t1" in r.stdout.splitlines()


def test_restrict_json():
    r = run_cli("restrict", "--p", "2", "--lambda", "3,1", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc == {
        "p": 2,
        "n": 4,
        "lambda": [3, 1],
        "entries": [
            {"degree": 1, "label": "0.1", "mult": 1},
            {"degree": 2, "label": "[0,1]", "mult": 1},
        ],
    }
    total = sum(e["degree"] * e["mult"] for e in doc["entries"])
    assert total == 3


def test_table_head_and_alias():
    r = run_cli("table", "hook-grid", "--k", "3")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "x\ty\tB(y)\tformula\tengine"
    assert lines[1] == "0\t0\t-1\t2\t2"
    assert lines[4] == "0\t3\t0\t1\t1"
    # formula and engine columns agree on every row
    for line in lines[1:]:
        cells = line.split("\t")
        assert cells[3] == cells[4], line
    alias = run_cli("table", "thm13", "--k", "3")
    assert alias.stdout == r.stdout


def test_classify_table():
    r = run_cli("classify", "--p", "2", "--n", "8")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "lambda\tengine\tpredicted\tcase\tstatus"
    assert lines[1] == "8\t1\t1\ttrivial-row\tok"
    assert "6,2\t3\t>2\tpower-generic\tok" in lines
    assert all(line.endswith("\tok") for line in lines[1:])


def test_verify_suite_and_alias():
    r = run_cli("verify", "thm11", "--n-max", "8")
    assert r.returncode == 0
    assert r.stdout.startswith("criterion 03 classify-two: PASS - 60 shapes")
    full = run_cli("verify", "classify-two", "--n-max", "8")
    assert full.stdout == r.stdout


def test_byte_stability():
    for args in (
        ("restrict", "--p", "2", "--lambda", "3,3,2", "--format", "json"),
        ("table", "hook-grid", "--k", "4"),
        ("lin", "--p", "2", "--lambda", "6,6"),
    ):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_exit_code_usage():
    assert run_cli().returncode == 1
    assert run_cli("nosuch").returncode == 1
    assert run_cli("sbc", "--p", "2", "--lambda", "6,2").returncode == 1


def test_exit_code_domain():
    r = run_cli("sbc", "--p", "2", "--lambda", "6,2", "--linear", "y=9")
    assert r.returncode == 2
    assert "out of range" in r.stderr
    assert run_cli("verify", "nosuite").returncode == 2
    assert run_cli("sbc", "--p", "2", "--lambda", "2,3", "--linear", "y=0").returncode == 2
    # a non-prime p is rejected, not looped on (p = 1) or decomposed (p = 4)
    for p, la in (("1", "3"), ("0", "3"), ("4", "4,1")):
        r = run_cli("lin", "--p", p, "--lambda", la)
        assert r.returncode == 2, (p, r.stdout)
        assert "prime" in r.stderr


def test_exit_code_budget():
    import os

    env = dict(os.environ, SYLOW_BRANCH_BUDGET="4")
    r = run_cli("verify", "oracle", env=env)
    assert r.returncode == 3
    assert "budget" in r.stderr
    # an explicit --budget 0 is honoured, not read as unset
    assert run_cli("verify", "oracle", "--budget", "0").returncode == 3


def test_exit_code_verification_failure():
    r = run_cli("verify", "structure")
    assert r.returncode == 4
    assert r.stdout.startswith("criterion 09 structure: FAIL")
    assert "no valid pair exists" in r.stdout


def test_cache_roundtrip(tmp_path):
    cache = str(tmp_path / "vec.json")
    cold = run_cli("restrict", "--p", "2", "--lambda", "4,3,1", "--cache", cache)
    assert cold.returncode == 0
    doc = json.loads((tmp_path / "vec.json").read_text())
    assert doc["format"] == "sylowbranch-restriction-cache"
    assert doc["primes"] == [2]
    warm = run_cli("restrict", "--p", "2", "--lambda", "4,3,1", "--cache", cache)
    assert warm.returncode == 0
    assert warm.stdout == cold.stdout


def test_cache_corrupt_label_rejected(tmp_path):
    cache = tmp_path / "vec.json"
    # the degree sum of (2) still matches, so only the label check catches these
    for text in ("0.0.5", "5"):
        doc = {
            "format": "sylowbranch-restriction-cache",
            "version": 1,
            "primes": [2],
            "max_k": 1,
            "entries": [{"p": 2, "k": 1, "lambda": "2", "vector": [[text, 1]]}],
        }
        cache.write_text(json.dumps(doc))
        r = run_cli("restrict", "--p", "2", "--lambda", "2", "--cache", str(cache))
        assert r.returncode == 2, (text, r.stdout)
        assert "corrupt cache entry" in r.stderr
        assert r.stdout == ""
        assert json.loads(cache.read_text()) == doc


def test_classify_rejects_bad_domain_before_output():
    for p, n, message in (("9", "9", "prime"), ("3", "2", "trivial Sylow")):
        r = run_cli("classify", "--p", p, "--n", n)
        assert r.returncode == 2
        assert r.stdout == ""
        assert message in r.stderr


def test_cache_stale_version_rejected(tmp_path):
    cache = tmp_path / "vec.json"
    run_cli("restrict", "--p", "2", "--lambda", "2,2", "--cache", str(cache))
    doc = json.loads(cache.read_text())
    doc["version"] = 99
    cache.write_text(json.dumps(doc))
    r = run_cli("restrict", "--p", "2", "--lambda", "2,2", "--cache", str(cache))
    assert r.returncode == 2
    assert "stale" in r.stderr
