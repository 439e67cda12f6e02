import errno
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylowbranch import cli, engine
from sylowbranch import tower as tw
from sylowbranch.cli import main
from sylowbranch.partitions import sylow_shape


def run_cli(*args, env=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "sylowbranch.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
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
    # the empty partition and a hook grid below k = 2 are rejected with one
    # error line, not a traceback or a bare header
    for args in (
        ("lin", "--lambda", ""),
        ("restrict", "--lambda", ""),
        ("classify", "--p", "2", "--n", "0"),
        ("table", "--k", "-1"),
        ("table", "--k", "1"),
        ("verify", "classify-two", "--n-max", "3"),
    ):
        r = run_cli(*args)
        assert r.returncode == 2, (args, r.stderr)
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, args


def test_exit_code_domain_for_cache_io_and_recursion_depth(tmp_path):
    missing = str(tmp_path / "no" / "such" / "dir" / "x.json")
    for args in (
        ("restrict", "--p", "2", "--lambda", "2,1", "--cache", missing),
        ("lin", "--p", "2", "--lambda", "1100"),
    ):
        r = run_cli(*args)
        assert r.returncode == 2, (args, r.stderr)
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, args
        assert "Traceback" not in r.stderr


def test_python_dash_m_package():
    r = subprocess.run(
        [sys.executable, "-m", "sylowbranch", "sbc", "--p", "2", "--lambda", "6,2", "--linear", "y=0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "2\n"


def test_exit_code_budget():
    env = dict(os.environ, SYLOW_BRANCH_BUDGET="4")
    r = run_cli("verify", "oracle", env=env)
    assert r.returncode == 3
    assert "budget" in r.stderr
    # an explicit --budget 0 is honoured, not read as unset
    assert run_cli("verify", "oracle", "--budget", "0").returncode == 3


def test_budget_option_does_not_outlive_the_call(monkeypatch):
    monkeypatch.delenv("SYLOW_BRANCH_BUDGET", raising=False)
    assert main(["verify", "small-sets", "--budget", "0"]) == 0
    assert "SYLOW_BRANCH_BUDGET" not in os.environ
    assert tw.check_budget(4, 2) == 8


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


def test_cache_written_only_when_the_memo_grows(tmp_path):
    cache = tmp_path / "vec.json"
    run_cli("restrict", "--p", "2", "--lambda", "4,3,1", "--cache", str(cache))
    first = cache.read_bytes()
    os.utime(cache, (0, 0))
    # a cached shape and the linear slice add no full vector: no write
    for args in (("restrict", "--lambda", "4,3,1"), ("lin", "--lambda", "4,3,1"), ("sbc", "--lambda", "4,4", "--linear", "y=0")):
        assert run_cli(*args, "--p", "2", "--cache", str(cache)).returncode == 0
        assert cache.stat().st_mtime == 0, args
    assert cache.read_bytes() == first
    # a new shape adds vectors and rewrites the file
    assert run_cli("restrict", "--p", "2", "--lambda", "5,3", "--cache", str(cache)).returncode == 0
    assert cache.stat().st_mtime > 0
    assert len(json.loads(cache.read_text())["entries"]) > len(json.loads(first)["entries"])


def _corrupt_label_doc(text):
    # the degree sum of (2) still matches, so only the label check catches text
    return {
        "format": "sylowbranch-restriction-cache",
        "version": 1,
        "primes": [2],
        "max_k": 1,
        "entries": [{"p": 2, "k": 1, "lambda": "2", "vector": [[text, 1]]}],
    }


def test_cache_corrupt_label_rejected(tmp_path):
    cache = tmp_path / "vec.json"
    # ".0" would pass every later check if read as "0"; "[0, 1]" has inner
    # whitespace, which splitting at the commas and stripping would accept
    for text in ("0.0.5", "5", ".0", "[0, 1]"):
        doc = _corrupt_label_doc(text)
        cache.write_text(json.dumps(doc))
        before = cache.read_bytes()
        r = run_cli("restrict", "--p", "2", "--lambda", "2", "--cache", str(cache))
        assert r.returncode == 2, (text, r.stdout)
        assert "corrupt cache entry" in r.stderr
        assert r.stdout == ""
        assert cache.read_bytes() == before


def test_cache_malformed_document_rejected(tmp_path, monkeypatch):
    cache = tmp_path / "vec.json"
    good = _corrupt_label_doc("0")
    entry = good["entries"][0]
    docs = (
        [good],
        {k: v for k, v in good.items() if k != "entries"},
        dict(good, entries=[{k: v for k, v in entry.items() if k != "lambda"}]),
        dict(good, entries=[dict(entry, **{"lambda": 2})]),
        dict(good, entries=[dict(entry, **{"lambda": "1,3"})]),
        # a non-prime p, and |lambda| != p^k; both keep the degree sum
        dict(good, entries=[{"p": 4, "k": 1, "lambda": "4", "vector": [["0", 1]]}]),
        dict(good, entries=[{"p": 2, "k": 1, "lambda": "3", "vector": [["0", 1]]}]),
        # a repeated label, whose last multiplicity would win, and a float one
        dict(good, entries=[dict(entry, vector=[["0", 5], ["0", 1]])]),
        dict(good, entries=[dict(entry, vector=[["0", 1.7]])]),
        dict(good, entries=[dict(entry, vector=[["0", True]])]),
        # p and k must be JSON integers, not floats, strings or booleans
        dict(good, entries=[dict(entry, p=2.9)]),
        dict(good, entries=[dict(entry, p="2")]),
        dict(good, entries=[dict(entry, k="1")]),
        dict(good, entries=[dict(entry, k=True)]),
        # the same (p, k, lambda) twice
        dict(good, entries=[entry, entry]),
    )
    for doc in docs:
        cache.write_text(json.dumps(doc))
        before = cache.read_bytes()
        r = run_cli("restrict", "--p", "2", "--lambda", "2", "--cache", str(cache))
        assert r.returncode == 2, (doc, r.stderr)
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, (doc, r.stderr)
        assert "corrupt cache entry" in r.stderr or "not a restriction cache" in r.stderr
        assert cache.read_bytes() == before
        # a rejected file loads nothing, not even the entries before the bad one
        monkeypatch.setattr(engine, "_full_memo", {})
        with pytest.raises(ValueError):
            engine.load_cache(cache)
        assert engine._full_memo == {}, doc


def test_cache_entry_above_the_size_bound_rejected(tmp_path):
    # p^k is bounded before the size check or the degree of lambda is computed
    cache = tmp_path / "vec.json"
    good = _corrupt_label_doc("0")
    huge = 2**61 - 1
    for entry in (
        {"p": 2, "k": 10**12, "lambda": "2", "vector": [["0", 1]]},
        {"p": huge, "k": 1, "lambda": str(huge), "vector": [["0", 1]]},
        {"p": 2, "k": 13, "lambda": str(2**13), "vector": [["0", 1]]},
    ):
        cache.write_text(json.dumps(dict(good, entries=[entry])))
        before = cache.read_bytes()
        r = run_cli("restrict", "--p", "2", "--lambda", "2", "--cache", str(cache), timeout=20)
        assert r.returncode == 2, (entry, r.stderr)
        assert r.stdout == ""
        assert "corrupt cache entry" in r.stderr and str(engine.CACHE_MAX_SIZE) in r.stderr
        assert cache.read_bytes() == before
    # the largest vector restrict builds before its filling walk runs out of depth
    cache.unlink()
    runs = [run_cli("restrict", "--p", "2", "--lambda", "1024", "--cache", str(cache)) for _ in "ab"]
    assert [r.returncode for r in runs] == [0, 0] and runs[0].stdout == runs[1].stdout


def test_lin_and_sbc_leave_the_cache_file_alone(tmp_path):
    # the linear slice reads no full vector, so lin and sbc never open the file
    cache = tmp_path / "vec.json"
    cache.write_text(json.dumps(_corrupt_label_doc("0.0.5")))
    before = cache.read_bytes()
    for args in (("lin", "--lambda", "6,2"), ("sbc", "--lambda", "6,2", "--linear", "y=0")):
        plain = run_cli(*args, "--p", "2")
        cached = run_cli(*args, "--p", "2", "--cache", str(cache))
        assert plain.returncode == cached.returncode == 0, (args, cached.stderr)
        assert cached.stdout == plain.stdout
        assert cache.read_bytes() == before
    missing = tmp_path / "no" / "such" / "dir" / "x.json"
    r = run_cli("lin", "--p", "2", "--lambda", "6,2", "--cache", str(missing))
    assert r.returncode == 0, r.stderr
    assert not (tmp_path / "no").exists()


def test_cache_nonpositive_multiplicity_rejected(tmp_path):
    cache = tmp_path / "vec.json"
    # both vectors keep the degree sum of (1,1) at p = 2, which is 1
    for vector in ([["1", 2], ["0", -1]], [["1", 1], ["0", 0]]):
        doc = {
            "format": "sylowbranch-restriction-cache",
            "version": 1,
            "primes": [2],
            "max_k": 1,
            "entries": [{"p": 2, "k": 1, "lambda": "1,1", "vector": vector}],
        }
        cache.write_text(json.dumps(doc))
        r = run_cli("restrict", "--p", "2", "--lambda", "1,1", "--cache", str(cache))
        assert r.returncode == 2, (vector, r.stdout)
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


def test_dotted_linear_labels(capsys):
    # factors join with "|" in ascending height; "e" (or nothing) is the
    # trivial factor, and p = 11 prints its two-digit digits whole
    for args, out in (
        (("sbc", "--p", "2", "--lambda", "3,2", "--linear", "e|0.1"), "1\n"),
        (("sbc", "--p", "2", "--lambda", "3,2", "--linear", "|1.0"), "1\n"),
        (("sbc", "--p", "2", "--lambda", "3,2", "--linear", "e|1.1"), "0\n"),
        (("sbc", "--p", "3", "--lambda", "6,4,2", "--linear", "0|0.2"), "11\n"),
        (("sbc", "--p", "11", "--lambda", "10,1", "--linear", "10"), "1\n"),
        (("lin", "--p", "2", "--lambda", "3,2"), "e|0.0:1, e|0.1:1, e|1.0:1\n"),
        (("lin", "--p", "3", "--lambda", "2,2"), "e|1:1, e|2:1\n"),
        (("lin", "--p", "11", "--lambda", "10,1"), ", ".join(f"{d}:1" for d in range(1, 11)) + "\n"),
        (("lin", "--p", "11", "--lambda", "9,2,1"), "e|0:30, " + ", ".join(f"e|{d}:29" for d in range(1, 11)) + "\n"),
    ):
        assert main(list(args)) == 0, args
        assert capsys.readouterr().out == out, args


@st.composite
def linear_label_case(draw):
    """(p, factor heights of S_n, a linear label drawn over those factors)."""
    p = draw(st.sampled_from((2, 3, 5)))
    heights = sylow_shape(draw(st.integers(1, 3 * p**3)), p)
    psi = tuple(tuple(draw(st.lists(st.integers(0, p - 1), min_size=h, max_size=h))) for h in heights)
    return p, heights, psi


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(linear_label_case())
def test_linear_label_text_round_trip(case):
    p, heights, psi = case
    assert cli._parse_linear(cli._linear_text(psi), p, heights) == psi


def test_dotted_linear_label_errors(capsys):
    # a digit >= p, orbit text and a wrong number of factors
    for p, la, text in (
        ("3", "3", "3"),
        ("2", "2", "2"),
        ("2", "2,2", "[0,1]"),
        ("2", "3,2", "e|[0,1]"),
        ("2", "3,2", "0.1"),
        ("2", "3,2", "e|0.1|0"),
        ("2", "3,2", "e|0.1.1"),
    ):
        assert main(["sbc", "--p", p, "--lambda", la, "--linear", text]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, text


def test_lin_at_a_large_prime():
    # p = 2^61 - 1 is beyond trial division; n = 2 < p gives two trivial factors
    r = subprocess.run(
        [sys.executable, "-m", "sylowbranch.cli", "lin", "--p", str(2**61 - 1), "--lambda", "2"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "e|e:1\n"


def test_failed_cache_write_keeps_the_old_file(tmp_path, monkeypatch):
    cache = tmp_path / "vec.json"
    cache.write_text(json.dumps(_corrupt_label_doc("0")))
    before = cache.read_bytes()

    written = []

    def full_disk_open(path, mode="r", **kwargs):
        # a file opened for writing takes a prefix of the text, then the disk is full
        fh = open(path, mode, **kwargs)
        if "w" in mode:
            written.append(os.path.basename(path))
            write = fh.write

            def partial_write(text):
                write(text[:20])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.write = partial_write
        return fh

    # an empty memo, so that the new shape grows it and the file is written
    monkeypatch.setattr(engine, "_full_memo", {})
    monkeypatch.setattr(engine, "open", full_disk_open, raising=False)
    assert main(["restrict", "--p", "2", "--lambda", "3,1", "--cache", str(cache)]) == 2
    assert cache.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["vec.json"]
    assert written == ["vec.json.tmp"]
