import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graverkit
from graverkit import IntMat, graver_basis, is_strongly_robust, lambda_matrix
from graverkit.cli import _add_common, main
from graverkit.graver import DEFAULT_BUDGET
from graverkit.store import (
    TOOL_VERSION,
    Cache,
    cache_key,
    cached_graver_basis,
    read_matrix,
)

from _paper import EXAMPLE_E_ROWS, GEN_C_VECTORS, GEN_LAMBDAS, GEN_T, empty_graver_memos
from test_cli_golden import GOLDEN, write_inputs


MALFORMED_ELEMENTS = [
    [[1, 1, 1]],  # well typed, but not in Ker(A)
    [["x", 1, 1]],  # not integers
    [[7, 0, -3], [5, -3, 0]],  # kernel vectors out of canonical order
    [[-5, 3, 0]],  # not sign-canonical
    [[5, -3, 0, 0]],  # wrong length
]


def sha256_of(elements):
    return hashlib.sha256(json.dumps(elements).encode()).hexdigest()


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "curve.mat"
    path.write_text("1 3\n4 5 6\n")
    return str(path)

@pytest.fixture
def example_e_file(tmp_path):
    rows = ["8 11"] + [" ".join(str(x) for x in r) for r in EXAMPLE_E_ROWS]
    path = tmp_path / "exampleE.mat"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestVectorFiles:
    def test_round_trip(self):
        # a vector set is written as a matrix: "count n", then one vector per line
        vectors = ((3, -2, 0), (0, 6, -5))
        text = IntMat(vectors, 3).to_text()
        assert text == "2 3\n3 -2 0\n0 6 -5\n"
        assert IntMat.parse(text).rows == vectors
        assert IntMat((), 3).to_text() == "0 3\n"


class TestCache:
    def test_keys_isolate_operations_and_matrices(self):
        A = IntMat.row_vector([4, 5, 6])
        B = IntMat.row_vector([4, 5, 7])
        assert cache_key("graver", A) != cache_key("circuits", A)
        assert cache_key("graver", A) != cache_key("graver", B)

    def test_key_hashes_the_established_payload(self):
        # existing cache directories keep hitting: the payload still has its
        # empty third field
        A = IntMat.row_vector([4, 5, 6])
        payload = f"{TOOL_VERSION}|graver||1 3\n4 5 6\n"
        assert cache_key("graver", A) == hashlib.sha256(payload.encode()).hexdigest()

    def test_key_version_is_the_package_version(self):
        assert TOOL_VERSION == graverkit.__version__ == "0.1.0"

    def test_hit_equals_recomputation(self, tmp_path):
        cache = Cache(tmp_path)
        A = IntMat.row_vector([3, 5, 7])
        fresh = cached_graver_basis(A, cache)
        hit = cached_graver_basis(A, cache)
        assert hit == fresh == graver_basis(A)
        assert list(tmp_path.glob("*.json"))

    def test_robustness_from_a_cache_hit(self, tmp_path):
        cache = Cache(tmp_path)
        for A in (IntMat.from_rows(EXAMPLE_E_ROWS), lambda_matrix([4, 5, 6], [1]).matrix):
            cached_graver_basis(A, cache)
            hit = cached_graver_basis(A, cache)
            assert hit is not graver_basis(A)  # read from disk, not the memo
            assert is_strongly_robust(A, G=hit) == is_strongly_robust(A)

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = Cache(tmp_path)
        A = IntMat.row_vector([3, 5, 7])
        key = cache_key("graver", A)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cached_graver_basis(A, cache) == graver_basis(A)

    def test_entry_that_is_not_utf8_recomputed_and_overwritten(self, tmp_path):
        cache = Cache(tmp_path)
        A = IntMat.row_vector([3, 5, 7])
        key = cache_key("graver", A)
        (tmp_path / f"{key}.json").write_bytes(b"\xff\xfe{garbage")
        assert cache.get(key) is None
        assert cached_graver_basis(A, cache) == graver_basis(A)
        assert cache.get(key)["elements"] == [list(v) for v in graver_basis(A).elements]

    @pytest.mark.parametrize("elements", MALFORMED_ELEMENTS)
    def test_malformed_entry_recomputed_and_overwritten(self, tmp_path, elements):
        cache = Cache(tmp_path)
        A = IntMat.row_vector([3, 5, 7])
        key = cache_key("graver", A)
        (tmp_path / f"{key}.json").write_text(json.dumps({"n": 3, "elements": elements}))
        assert cached_graver_basis(A, cache) == graver_basis(A)
        assert cache.get(key)["elements"] == [list(v) for v in graver_basis(A).elements]

    @pytest.mark.parametrize("elements", MALFORMED_ELEMENTS)
    def test_malformed_entry_with_its_digest_recomputed(self, tmp_path, elements):
        cache = Cache(tmp_path)
        A = IntMat.row_vector([3, 5, 7])
        entry = {"n": 3, "elements": elements, "sha256": sha256_of(elements)}
        (tmp_path / f"{cache_key('graver', A)}.json").write_text(json.dumps(entry))
        assert cached_graver_basis(A, cache) == graver_basis(A)

    @pytest.mark.parametrize("digest", ["missing", "stale"])
    def test_truncated_entry_recomputed_and_overwritten(self, tmp_path, digest):
        # the first 2 of the 8 elements of Gr(3 5 7) pass every element check
        cache = Cache(tmp_path)
        A = IntMat.row_vector([3, 5, 7])
        key = cache_key("graver", A)
        full = [list(v) for v in graver_basis(A).elements]
        assert len(full) == 8
        entry = {"n": 3, "elements": full[:2]}
        if digest == "stale":
            entry["sha256"] = sha256_of(full)
        (tmp_path / f"{key}.json").write_text(json.dumps(entry))
        assert cached_graver_basis(A, cache) == graver_basis(A)
        assert cache.get(key) == {"n": 3, "elements": full, "sha256": sha256_of(full)}


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_stdout_exits_without_traceback(self, curve_file, fmt):
        env = {**os.environ, "PYTHONPATH": str(Path(graverkit.__file__).parents[1])}
        child = subprocess.Popen(
            [sys.executable, "-m", "graverkit.cli", "graver", curve_file, "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        child.stdout.close()  # long before the child has imported graverkit
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 1
        assert err == b""

    def test_no_command_needs_numpy(self, tmp_path):
        # in a child where importing numpy fails, a cold completion, a complex
        # with its lifting check, a witness search and a scan print their
        # golden bytes
        commands = [("graver", "exampleE.mat"), ("complex", "4", "5", "6", "--verify"),
                    ("check-robust", "exampleE.mat"), ("search", "--s", "3", "--bound", "8")]
        commands = [" ".join(argv + ("--format", "text")) for argv in commands]
        script = (
            "import contextlib, hashlib, io, json, sys\n"
            "sys.modules['numpy'] = None  # every import of numpy raises ImportError\n"
            "from graverkit.cli import main\n"
            "digests = {}\n"
            f"for command in {commands!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = main(command.split())\n"
            "    digests[command] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]\n"
            "print(json.dumps(digests))\n"
        )
        write_inputs(tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(graverkit.__file__).parents[1])}
        env.pop("GRAVERKIT_CACHE_DIR", None)
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=env, cwd=tmp_path, timeout=300)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == {command: GOLDEN[command] for command in commands}

    def test_complex_command(self, capsys):
        code, out = self.run(capsys, "complex", "4", "5", "6")
        assert code == 0
        assert "faces: [], [2]" in out

    def test_classify3_command(self, capsys):
        code, out = self.run(capsys, "classify3", "6", "10", "15")
        assert code == 0
        assert out.strip() == "CIOnAll, degrees 30,30,30"

    def test_graver_text_and_cache_transparency(self, capsys, curve_file, tmp_path):
        code, plain = self.run(capsys, "graver", curve_file)
        assert code == 0
        cache_dir = str(tmp_path / "cache")
        code, cold = self.run(capsys, "graver", curve_file, "--cache-dir", cache_dir)
        code, warm = self.run(capsys, "graver", curve_file, "--cache-dir", cache_dir)
        assert plain == cold == warm
        assert plain.splitlines()[0] == "7 3"

    def test_graver_json(self, capsys, curve_file):
        code, out = self.run(capsys, "graver", curve_file, "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 7
        assert [3, 0, -2] in payload["elements"]

    def test_circuits_command(self, capsys, curve_file):
        code, out = self.run(capsys, "circuits", curve_file)
        assert code == 0
        assert out.splitlines()[0] == "3 3"

    def test_indispensable_command(self, capsys, curve_file):
        code, out = self.run(capsys, "indispensable", curve_file, "--format", "json")
        payload = json.loads(out)
        assert payload["graver_size"] == 7
        assert payload["count"] < 7

    def test_bouquets_command(self, capsys, example_e_file):
        code, out = self.run(capsys, "bouquets", example_e_file, "--format", "json")
        payload = json.loads(out)
        assert payload["omega"] == [3]
        assert payload["simple"] is False
        assert payload["bouquets"][2]["members"] == [6, 7]

    def test_bouquets_of_a_zero_row_matrix_keep_its_columns(self, capsys, tmp_path):
        path = tmp_path / "zero.mat"
        path.write_text("0 3\n")
        code, out = self.run(capsys, "bouquets", str(path))
        assert code == 0
        assert out.endswith("omega: [1, 2, 3]\nA_B:\n0 3\n")

    def test_check_robust_command(self, capsys, example_e_file):
        code, out = self.run(capsys, "check-robust", example_e_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["strongly_robust"] is True
        assert payload["graver_size"] == payload["indispensable_size"] == 266

    def test_check_robust_witness(self, capsys, curve_file):
        code, out = self.run(capsys, "check-robust", curve_file, "--format", "json")
        payload = json.loads(out)
        assert payload["strongly_robust"] is False
        assert "witness" in payload

    def test_lambda_command(self, capsys):
        code, out = self.run(capsys, "lambda", "4", "5", "6", "--omega", "2")
        assert code == 0
        assert out.splitlines()[0] == "3 5"

    def test_genlaw_command(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "T": list(GEN_T),
            "c": [list(c) for c in GEN_C_VECTORS],
            "lambda": [list(l) for l in GEN_LAMBDAS],
        }))
        code, out = self.run(capsys, "genlaw", str(spec_path))
        assert code == 0
        assert out.splitlines()[0] == "8 10"

    def test_reconstruct_command(self, capsys, example_e_file):
        code, out = self.run(capsys, "reconstruct", example_e_file, "--format", "json")
        payload = json.loads(out)
        assert payload["T"] == [24, 40, 41, 60, 80]
        assert payload["permutation"] == [1, 3, 2, 5, 6, 7, 4, 8, 10, 9, 11]

    def test_search_command(self, capsys):
        code, out = self.run(capsys, "search", "--s", "3", "--bound", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["violations"] == []

    def test_oracle_commands(self, capsys, curve_file):
        code, out = self.run(capsys, "oracle", "graver", curve_file, "--box", "12")
        assert code == 0
        assert out.splitlines()[0] == "7 3"
        code, out = self.run(capsys, "oracle", "kernel", curve_file, "--box", "6")
        assert code == 0
        code, out = self.run(capsys, "oracle", "indispensable", curve_file,
                             "--box", "12", "--wbox", "18")
        assert code == 0

    def test_out_file(self, capsys, curve_file, tmp_path):
        target = tmp_path / "result.txt"
        code, out = self.run(capsys, "graver", curve_file, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "7 3"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("option, path", [("--out", "missing/dir/x.txt"),
                                              ("--cache-dir", "some_file/sub")])
    def test_unusable_output_paths_are_usage_errors(self, capsys, curve_file, tmp_path,
                                                    monkeypatch, fmt, option, path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "some_file").write_text("")
        code = main(["graver", curve_file, option, path, "--format", fmt])
        out, err = capsys.readouterr()
        assert code == 2
        if fmt == "json":
            assert err == ""
            message = json.loads(out)["error"]["message"]
        else:
            assert out == "" and err.startswith("error: ")
            message = err
        assert f"{option} {path}" in message

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unwritable_cache_entry_is_usage_error(self, capsys, curve_file, tmp_path, fmt):
        # a directory standing at the entry's path makes the cache write fail
        entry = tmp_path / "c" / f"{cache_key('graver', read_matrix(curve_file))}.json"
        entry.mkdir(parents=True)
        code = main(["graver", curve_file, "--cache-dir", str(tmp_path / "c"),
                     "--format", fmt])
        out, err = capsys.readouterr()
        assert code == 2
        if fmt == "json":
            assert err == ""
            message = json.loads(out)["error"]["message"]
        else:
            assert out == "" and err.startswith("error: ")
            message = err
        assert f"--cache-dir {entry}" in message
        assert entry.is_dir() and os.listdir(tmp_path / "c") == [entry.name]

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _ = self.run(capsys, "graver", str(tmp_path / "absent.mat"))
        assert code == 2

    def test_precondition_failure_exit_code(self, capsys, tmp_path):
        path = tmp_path / "unpointed.mat"
        path.write_text("1 2\n1 -1\n")
        code, _ = self.run(capsys, "check-robust", str(path))
        assert code == 3

    def test_budget_exit_code_and_json_error(self, capsys, tmp_path):
        # a curve no other test computes, so the in-process memo cannot serve it
        path = tmp_path / "curve.mat"
        path.write_text("1 3\n31 37 41\n")
        code, out = self.run(capsys, "graver", str(path),
                             "--budget-elems", "1", "--format", "json")
        assert code == 4
        payload = json.loads(out)
        assert payload["error"]["type"] == "BudgetExceededError"

    def test_circuits_take_the_budget(self, capsys, tmp_path):
        # a rank-17 lattice of Z^24 has millions of column subsets to try
        wide = Path(__file__).resolve().parents[1] / "data" / "wide7x24.mat"
        code, out = self.run(capsys, "circuits", str(wide), "--budget-secs", "0.05",
                             "--format", "json")
        assert code == 4
        assert json.loads(out)["error"]["message"].startswith(
            "time budget exceeded (limit=0.05, candidates generated=")

    def test_principal_kernel_needs_no_budget(self, capsys, tmp_path, monkeypatch):
        # a rank-1 kernel is answered in closed form, so no cap can stop it
        empty_graver_memos(monkeypatch)
        path = tmp_path / "curve.mat"
        path.write_text("1 2\n3 5\n")
        code, out = self.run(capsys, "graver", str(path), "--budget-secs", "0")
        assert (code, out) == (0, "1 2\n5 -3\n")

    def test_budget_help_states_the_default_budget(self):
        # the defaults are spelled out by hand in the help strings, whose bytes are pinned
        parser = argparse.ArgumentParser()
        _add_common(parser)
        text = " ".join(parser.format_help().split())
        stated = [float(re.search(rf"{cap} cap per computation \(default (\S+)\)", text)[1])
                  for cap in ("candidate", "wall-clock")]
        assert stated == [DEFAULT_BUDGET.max_candidates, DEFAULT_BUDGET.max_seconds]

    def test_usage_exit_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2

    def test_cache_dir_from_environment(self, capsys, curve_file, tmp_path, monkeypatch):
        cache_dir = tmp_path / "envcache"
        monkeypatch.setenv("GRAVERKIT_CACHE_DIR", str(cache_dir))
        code, out = self.run(capsys, "graver", curve_file)
        assert code == 0
        assert list(cache_dir.glob("*.json"))

    def test_lambda_bad_omega_is_precondition_failure(self, capsys):
        code, _ = self.run(capsys, "lambda", "4", "5", "6", "--omega", "7")
        assert code == 3

    def test_genlaw_verify_flag(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "T": [4, 5, 6],
            "c": [[1, -1], [1, -1], [1, -1]],
        }))
        code, out = self.run(capsys, "genlaw", str(spec_path), "--verify", "--format", "json")
        assert code == 0
        assert json.loads(out)["strongly_robust"] is True

    @pytest.mark.parametrize("lam", [None, False, 0, "", {}, "x", {"a": [1]}, [], "absent"],
                             ids=["null", "false", "zero", "empty-string", "empty-object",
                                  "string", "object", "empty-list", "absent"])
    def test_genlaw_lambda_must_be_a_list_or_absent(self, capsys, tmp_path, lam):
        # absent or null keeps the default lambdas; any other value that is
        # not a list is a usage error naming lambda; [] is a list, which the
        # spec rejects for having no lambda vector per c vector
        spec = {"T": [4, 5, 6], "c": [[1, -1], [1, -1], [1, -1]]}
        if lam != "absent":
            spec["lambda"] = lam
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out = self.run(capsys, "genlaw", str(spec_path), "--skip-hypothesis",
                             "--format", "json")
        payload = json.loads(out)
        if lam in (None, "absent"):
            assert code == 0 and payload["q"] == 6
        elif lam == []:
            assert code == 3
            assert payload["error"]["message"] == "one lambda vector per c vector is required"
        else:
            assert code == 2
            assert payload["error"]["type"] == "UsageError"
            assert "lambda is " in payload["error"]["message"]

    def test_search_sampled(self, capsys):
        code, out = self.run(capsys, "search", "--s", "4", "--bound", "12",
                             "--samples", "5", "--seed", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["instances"] == 5 and payload["ok"] is True

    def test_search_bad_range_is_usage_error(self, capsys):
        code, _ = self.run(capsys, "search", "--s", "2", "--bound", "5")
        assert code == 2
