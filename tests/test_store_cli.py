import json

import pytest

import graverkit
from graverkit import IntMat, graver_basis, is_strongly_robust, lambda_matrix
from graverkit.cli import main
from graverkit.store import (
    TOOL_VERSION,
    Cache,
    cache_key,
    cached_graver_basis,
    format_vectors,
    parse_vectors,
)

from _paper import EXAMPLE_E_ROWS, GEN_C_VECTORS, GEN_LAMBDAS, GEN_T


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
        vectors = ((3, -2, 0), (0, 6, -5))
        text = format_vectors(vectors, 3)
        assert text.splitlines()[0] == "2 3"
        n, parsed = parse_vectors(text)
        assert n == 3 and parsed == vectors

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_vectors("2 3\n1 2 3\n")


class TestCache:
    def test_keys_isolate_operations_and_matrices(self):
        A = IntMat.row_vector([4, 5, 6])
        B = IntMat.row_vector([4, 5, 7])
        assert cache_key("graver", A) != cache_key("circuits", A)
        assert cache_key("graver", A) != cache_key("graver", B)

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

    @pytest.mark.parametrize("elements", [
        [[1, 1, 1]],  # well typed, but not in Ker(A)
        [["x", 1, 1]],  # not integers
        [[7, 0, -3], [5, -3, 0]],  # kernel vectors out of canonical order
        [[-5, 3, 0]],  # not sign-canonical
        [[5, -3, 0, 0]],  # wrong length
    ])
    def test_malformed_entry_recomputed_and_overwritten(self, tmp_path, elements):
        cache = Cache(tmp_path)
        A = IntMat.row_vector([3, 5, 7])
        key = cache_key("graver", A)
        (tmp_path / f"{key}.json").write_text(json.dumps({"n": 3, "elements": elements}))
        assert cached_graver_basis(A, cache) == graver_basis(A)
        assert cache.get(key)["elements"] == [list(v) for v in graver_basis(A).elements]


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

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

    def test_search_sampled(self, capsys):
        code, out = self.run(capsys, "search", "--s", "4", "--bound", "12",
                             "--samples", "5", "--seed", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["instances"] == 5 and payload["ok"] is True

    def test_search_bad_range_is_usage_error(self, capsys):
        code, _ = self.run(capsys, "search", "--s", "9", "--bound", "5")
        assert code == 2
