"""Golden digests of the CLI: the sha256 of stdout and the exit code.

Every subcommand runs in-process through `graverkit.cli.main`, in both output
formats, from a directory that holds the inputs under fixed relative names, so
that error messages naming a file are reproducible. For `--out FILE` the digest
is of the file, and stdout must be empty. `search` JSON carries the wall-clock
`runtime_seconds`, which is dropped before hashing.

After an intended output change, print the new table with

    PYTHONPATH=src python3 tests/test_cli_golden.py

and replace `GOLDEN` with it; review which digests moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from graverkit.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"

INPUTS = {
    "curve.mat": "1 3\n4 5 6\n",
    "unpointed.mat": "1 2\n1 -1\n",
    # a curve no other test computes, so the in-process memo cannot serve it
    "wide.mat": "1 4\n101 103 107 109\n",
    "zero.mat": "0 3\n",
    # a float in T and in c, which a spec must not truncate
    "float.json": '{"T": [4.9, 5, 6], "c": [[1, -1], [1, 2.5], [1, -3]]}\n',
}
COPIED = ("exampleE.mat", "genlaw456.json")

# argparse wraps help text to the terminal width, which it reads from COLUMNS.
COLUMNS = "80"
# argparse's help layout differs between Python minor versions; the `--help`
# digests were taken with this one.
HELP_PYTHON = (3, 11)

SUBCOMMANDS = ("graver", "circuits", "indispensable", "bouquets", "check-robust", "complex",
               "classify3", "lambda", "genlaw", "reconstruct", "search", "oracle")

BOTH_FORMATS = [
    ("graver", "curve.mat"),
    ("graver", "exampleE.mat"),
    ("circuits", "curve.mat"),
    ("circuits", "exampleE.mat"),
    ("indispensable", "curve.mat"),
    ("indispensable", "exampleE.mat"),
    ("bouquets", "curve.mat"),
    ("bouquets", "exampleE.mat"),
    ("bouquets", "zero.mat"),
    ("check-robust", "curve.mat"),
    ("check-robust", "exampleE.mat"),
    ("reconstruct", "exampleE.mat"),
    ("complex", "4", "5", "6"),
    ("complex", "4", "5", "6", "--verify"),
    ("complex", "24", "40", "41", "60", "80", "--verify"),
    ("complex", "15", "15", "29", "29", "29"),  # every singleton rejected by its sub-curves
    ("classify3", "6", "10", "15"),
    ("classify3", "4", "5", "6"),
    ("lambda", "4", "5", "6", "--omega", "2"),
    ("lambda", "24", "40", "41", "60", "80"),
    ("genlaw", "genlaw456.json"),
    ("genlaw", "genlaw456.json", "--verify"),
    ("genlaw", "genlaw456.json", "--skip-hypothesis"),
    ("search", "--s", "3", "--bound", "8"),
    ("oracle", "kernel", "curve.mat", "--box", "6"),
    ("oracle", "graver", "curve.mat", "--box", "12"),
    ("oracle", "indispensable", "curve.mat", "--box", "12", "--wbox", "18"),
    ("oracle", "indispensable", "curve.mat", "--box", "12", "--wbox", "0"),
    ("graver", "curve.mat", "--out", "result.out"),
]

JSON_ERRORS = [
    ("graver", "absent.mat"),  # exit 2: unreadable input
    ("search", "--s", "2", "--bound", "5"),  # exit 2: s below 3
    ("search", "--s", "4", "--bound", "0", "--samples", "3"),  # exit 2: bound below 1
    ("search", "--s", "3", "--bound", "5", "--samples", "0"),  # exit 2: no samples
    ("check-robust", "unpointed.mat"),  # exit 3: not pointed
    ("reconstruct", "unpointed.mat"),  # exit 3: bouquet ideal not a monomial curve
    ("lambda", "4", "5", "6", "--omega", "7"),  # exit 3: omega out of range
    ("lambda", "4", "5", "6", "--omega", "x"),  # exit 2: omega not a list of indices
    ("complex", "0", "0", "0"),  # exit 3: entries not positive
    ("genlaw", "float.json"),  # exit 2: a spec entry that is not an integer
    ("graver", "wide.mat", "--budget-elems", "1"),  # exit 4: budget
    ("graver", "curve.mat", "--budget-elems", "-5"),  # exit 2: a negative cap
    ("graver", "curve.mat", "--budget-secs", "nan"),  # exit 2: NaN, which caps nothing
]


def _cases() -> list[tuple[str, ...]]:
    cases = [argv + ("--format", fmt) for argv in BOTH_FORMATS for fmt in ("text", "json")]
    cases += [argv + ("--format", "json") for argv in JSON_ERRORS]
    cases += [("--help",)] + [(name, "--help") for name in SUBCOMMANDS]
    return cases


CASES = _cases()


def write_inputs(directory: Path) -> None:
    for name, text in INPUTS.items():
        (directory / name).write_text(text)
    for name in COPIED:
        shutil.copyfile(DATA / name, directory / name)


def run(argv: tuple[str, ...]) -> tuple[int, str]:
    """Exit code and the text the command produced, in the current directory."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    text = stdout.getvalue()
    if "--out" in argv:
        assert text == ""
        text = Path(argv[argv.index("--out") + 1]).read_text()
    if argv[0] == "search" and "json" in argv and code == 0:
        payload = json.loads(text)
        del payload["runtime_seconds"]
        text = json.dumps(payload, indent=2)
    return code, text


def record(argv: tuple[str, ...]) -> list:
    code, text = run(argv)
    return [code, hashlib.sha256(text.encode()).hexdigest()]


GOLDEN = {
    'graver curve.mat --format text': [0, '25d0d418c6296fc99e0b4cd05189c483ef09c51a2ae4760b268badfcc701afba'],
    'graver curve.mat --format json': [0, 'a738b9cd363c0bb4a088fa69f418f2eb74b23dc10e97b85ed35b68838cececa6'],
    'graver exampleE.mat --format text': [0, '1c599bbe8f2ef2825b9d1794ae0421a22d92dbddc3b6d1c24b04c7436795924f'],
    'graver exampleE.mat --format json': [0, '27fabb48098623919f77aec32a6aa9d8f8ea7f0d6c402b8ae25da79f0004c026'],
    'circuits curve.mat --format text': [0, '562adf68d23b8a4fae2f6834dec314e2492a1e0d038dfba3f7af0e679ea4b818'],
    'circuits curve.mat --format json': [0, '8689f3fa16bf57745c7596001c6a8d7dfc0bbf255520e67e79dddfe8109c1e76'],
    'circuits exampleE.mat --format text': [0, '3d60d81e071e63edabcd74377c5e9a016fdf039d6b74628881ead6982be1f392'],
    'circuits exampleE.mat --format json': [0, '0f72b1e5c9516eedd1291a63bc549e4be729e7173794592b4c7cf4e07e8b9b9a'],
    'indispensable curve.mat --format text': [0, '4658017148b83cc5323a2651164d866fd4b9485e53a2b5c07f66922204ca3db3'],
    'indispensable curve.mat --format json': [0, '9c70092a640363112eddef661616b08bff1408e21fa4245d9f415844a32db82d'],
    'indispensable exampleE.mat --format text': [0, '1c599bbe8f2ef2825b9d1794ae0421a22d92dbddc3b6d1c24b04c7436795924f'],
    'indispensable exampleE.mat --format json': [0, '0d7fa8dbf347916058aa284b0b1d224de7afeaf27d3db776bb0774188850712a'],
    'bouquets curve.mat --format text': [0, '91086145d71e821b4297cfcd0b45a99194a13914b386eec26426f1dcbe2b88fe'],
    'bouquets curve.mat --format json': [0, '91607ab0936dd05d051befa11120bf75b6a9796893f3d8a0969590e8b26d670b'],
    'bouquets exampleE.mat --format text': [0, '5627c23a834f9902a019b1f23467ff3cdb08acea7518507738906a1b9c4ba027'],
    'bouquets exampleE.mat --format json': [0, '29d176e7acc05e557b6452377b41862f28665740517f8e0690a342968c788df4'],
    'bouquets zero.mat --format text': [0, '7c6a6e3a7ac5691a8c9890c06c1d29ef36e52db0ffc65ca4c5a50eb16b3597cd'],
    'bouquets zero.mat --format json': [0, 'c708273aebb022f3be0ab38d9aa74af7290401247b02cbd28c984d91b18a8d0c'],
    'check-robust curve.mat --format text': [0, '0c3fd27c930753891d83de9445f1cbb1c29127b50bde900b2caa0898c24c0dae'],
    'check-robust curve.mat --format json': [0, 'e2604aebff91bbbb2cb5d3a7b05f69d3b8bb3a7034717226f09179c8493b9ad4'],
    'check-robust exampleE.mat --format text': [0, 'd575877bbf8e3c9c994e1a8705d02c127818231de79a4a68449ef688bcf6df86'],
    'check-robust exampleE.mat --format json': [0, '3bea30dc45683e7912f70c35b0ce5a41300f2815c8561404cc89465bb41964be'],
    'reconstruct exampleE.mat --format text': [0, 'ed41db19733fdf7dc892f2d6531872067fba77e1e112d6b12c3e2eefb9582e89'],
    'reconstruct exampleE.mat --format json': [0, 'cc261a14d49eba637d2901e02362c2c5523ce5cd5a4fd8b5dfbf1eb05ac7204f'],
    'complex 4 5 6 --format text': [0, 'bdf27017f29d4f758bd249fb1ef8dcd70ceab10f131c7f8c7d65a575b7305967'],
    'complex 4 5 6 --format json': [0, '633b111afb7841107dcb3fc1898a292abeeaa405448045b454a67b63102142b4'],
    'complex 4 5 6 --verify --format text': [0, 'bdf27017f29d4f758bd249fb1ef8dcd70ceab10f131c7f8c7d65a575b7305967'],
    'complex 4 5 6 --verify --format json': [0, 'f84e0c30ff1bcd0b91034f71b19c96e34c0133ec4d5bdbb56334e18419a3c6e1'],
    'complex 24 40 41 60 80 --verify --format text': [0, '48f365a7a58af746eeb353744b53de2b67c6a5b9ab173d82470d5f23a4a56fbf'],
    'complex 24 40 41 60 80 --verify --format json': [0, 'eb329a45462b5d742ac24655e1bed8ee433599517ec3c435d82d9baa6f0fe7f0'],
    'complex 15 15 29 29 29 --format text': [0, '9150bd530e54defe80a020738b4c1a105f9b4ba6f09b83b8193d0e4571c82cbd'],
    'complex 15 15 29 29 29 --format json': [0, '2f667e14a899f7b345b5337b5b5bf7750761326b429500f6d988bff5593af0cd'],
    'classify3 6 10 15 --format text': [0, 'a84acb7941c73184b800e11fb5619e78eecef45e6ba77975d66c0f8d56c75ff1'],
    'classify3 6 10 15 --format json': [0, 'c90cff2039cb1166acc7b64c946341cb82579a3e0955e7e76ea30677d0040320'],
    'classify3 4 5 6 --format text': [0, '64e2316ee5c02c90838d84ad0d938d53d46d4eef622a0fe26710dd76010ae101'],
    'classify3 4 5 6 --format json': [0, 'dc71cb6c5413d0b6195c6bfcde6ce95e3e6611e4f76495189fdcda26619457c2'],
    'lambda 4 5 6 --omega 2 --format text': [0, '06ee0e9dab087f04496ba89bd13518c43a2bae5984515262ed35f2422067b687'],
    'lambda 4 5 6 --omega 2 --format json': [0, '1ec1ffed50945939d666833b3f06152e730d96bdcc2bb6398bed509ca86fa903'],
    'lambda 24 40 41 60 80 --format text': [0, '7a3d9abbfcd1a51ad618a27bdcefd888389ebda07dd72bf4bdbd638d200b632c'],
    'lambda 24 40 41 60 80 --format json': [0, 'ce476abab5ca3181a58b47291f754b38a3d2afd06dea6463b5c2f1b6af545cd8'],
    'genlaw genlaw456.json --format text': [0, '4ec2ed7abe31028d692fe5bf3286a08df975b3e21da3d3619eba3c989a6d76df'],
    'genlaw genlaw456.json --format json': [0, '94821dff8616a413d10fb3ccc154ef6a543fca5e5f0c8e8b2f60f71d7ed9e884'],
    'genlaw genlaw456.json --verify --format text': [0, '2616a801f6367f8e18dd06310397beb036aa58a7515da4145f7456ee46618def'],
    'genlaw genlaw456.json --verify --format json': [0, 'ad643364e3c6dfdf00323a2920f1d2b42c0021529a8ded6ef9e237358e171ff9'],
    'genlaw genlaw456.json --skip-hypothesis --format text': [0, '4ec2ed7abe31028d692fe5bf3286a08df975b3e21da3d3619eba3c989a6d76df'],
    'genlaw genlaw456.json --skip-hypothesis --format json': [0, '94821dff8616a413d10fb3ccc154ef6a543fca5e5f0c8e8b2f60f71d7ed9e884'],
    'search --s 3 --bound 8 --format text': [0, '730807d9bf6868f80b42a9d5b8c201d322e95c3f6a817b14551aab5bc0a9db63'],
    'search --s 3 --bound 8 --format json': [0, 'ea373ee30cffba746fdb0df98f5eb09d22d542085efbeb1406d22811940499a6'],
    'oracle kernel curve.mat --box 6 --format text': [0, '06bf024767d7972c8a36e4304548d5accacc2c275cc2a823528d695b8d6945e1'],
    'oracle kernel curve.mat --box 6 --format json': [0, '6a38532846b78bd43ebe5bdb120d6fea1d38ac4f543c37e927966c8ee553ad49'],
    'oracle graver curve.mat --box 12 --format text': [0, '25d0d418c6296fc99e0b4cd05189c483ef09c51a2ae4760b268badfcc701afba'],
    'oracle graver curve.mat --box 12 --format json': [0, '6808409952362efa54e2b98db325a531d7da7390552305e43269cfdc1632e69f'],
    'oracle indispensable curve.mat --box 12 --wbox 18 --format text': [0, '4658017148b83cc5323a2651164d866fd4b9485e53a2b5c07f66922204ca3db3'],
    'oracle indispensable curve.mat --box 12 --wbox 18 --format json': [0, 'aa4ace0f8e08d29d3bfdb9145e8e7aa5fbb9f83e14776a5b477aa303c8648775'],
    'oracle indispensable curve.mat --box 12 --wbox 0 --format text': [0, '25d0d418c6296fc99e0b4cd05189c483ef09c51a2ae4760b268badfcc701afba'],
    'oracle indispensable curve.mat --box 12 --wbox 0 --format json': [0, '009d9885657e6473dc3261be184dd5bb66094c5621ba8f86203d44d778915a9c'],
    'graver curve.mat --out result.out --format text': [0, '25d0d418c6296fc99e0b4cd05189c483ef09c51a2ae4760b268badfcc701afba'],
    'graver curve.mat --out result.out --format json': [0, '912cd1cb5dfc64e12f6fcd2c018aa81b6b4e76d487d13323db9630520cae0c6a'],
    'graver absent.mat --format json': [2, '835b7bd77a60ced2716a1f73c321ed40edb3439b19c29a41e3341209e33d1bf3'],
    'search --s 2 --bound 5 --format json': [2, '48709597abee51a82bb5255b8db5640e93e1b951e1f004d2bf27b181cd813a59'],
    'search --s 4 --bound 0 --samples 3 --format json': [2, '6f979239bcd238ebcbdc360f7be04f163dc9d3e730432373ecf247252ca60ebf'],
    'search --s 3 --bound 5 --samples 0 --format json': [2, '1afdafb70e365da493a604602d074286c45748cb2a5edde949efac2dec09f5f9'],
    'check-robust unpointed.mat --format json': [3, '3b27d6dad2a9a545ee19bb719784ea31987c926c3714363cc3522311209a3a54'],
    'reconstruct unpointed.mat --format json': [3, 'a11bd9853fd6b4abb836eea5a9620d5706fd7c9a9446c3f4ac631cc2805be487'],
    'lambda 4 5 6 --omega 7 --format json': [3, '3a7dfa322478e917179ab137b915ff201a2a05d2ce5261475f7906794d93e066'],
    'lambda 4 5 6 --omega x --format json': [2, '6d2cfc6d89d191c04dae6d0737c68def23af36bdabc23e33550fbe3debcbeb2f'],
    'complex 0 0 0 --format json': [3, '5e2b36f4424fb6b9f19ae907947c7f7a6a6c552bfd5ee9f0e95a9b6822f6706f'],
    'genlaw float.json --format json': [2, 'e0769ead5e08841a51d5eadf409c5f5b0c3b2508fb83bbc1c79fc23ee71aaa8b'],
    'graver wide.mat --budget-elems 1 --format json': [4, '9d0d22ffce16fe72ce4c0ed6ca13be5947ffe3be2f0d71dc34656e014212b73b'],
    'graver curve.mat --budget-elems -5 --format json': [2, '767812eb371aac6138c5da56d7fc052713908f95f66e01f9f4edda5f945cd37d'],
    'graver curve.mat --budget-secs nan --format json': [2, '04612934061d760199e1ec1b135f1098b9e84b1e5a8146421c02df42deeba09d'],
    '--help': [0, '193cba7485a08cfdc24da747a581d7a7195d6911f83fa96de576d16de4161592'],
    'graver --help': [0, 'c8e45c07d9155346f664f5e35bd206ee42384a1b3930ee15041d5fb24e823efb'],
    'circuits --help': [0, '538eeb7b85bc60b659335a1bf6ce42e5688e7405f29b74fb6d7dac048f29d36a'],
    'indispensable --help': [0, 'e90247162ce31e862db036b7670834ee1d1f5900a9cfc269e9b7f874fbce4196'],
    'bouquets --help': [0, '11aecffacb75f4e9b0c044c9ba30c44302c69c704e0d3c79860edbc8645d9c45'],
    'check-robust --help': [0, 'fb7b6e22e1a00754a6683d27eeee7a108c41c39c45c61a899f1482893954f3fc'],
    'complex --help': [0, '918dbc481f596b3732b88fe6f8d2e7a8849eb2f3c33ed3bd8c0d2bafeeb591c5'],
    'classify3 --help': [0, 'e1f5dc7f82052292dfb8491027050fc1fb683798c190b4931361782caa30cc1d'],
    'lambda --help': [0, '9c0e7023b0b928df97c2cc56be1417b852920605ce37b91f3efdaff0cddd85e9'],
    'genlaw --help': [0, '661527c2c87caf542518e556f5a380b3ede31bceaca2f0cf857822fe6b811471'],
    'reconstruct --help': [0, '475657709fb61a65138991066da86b9c52ce71457f9b72e0c85fd047fbc4cd3e'],
    'search --help': [0, 'a166c20dd4b21777e0d7eb87aa7c0ef8b498e7ab4d523cafd1843b97d922f92d'],
    'oracle --help': [0, '0c1c1c84b283b9bd01af930f91ac9cf8ac496f36361506e85b836157dbdf5175'],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_golden")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_pinned(argv, workdir, monkeypatch):
    if "--help" in argv and sys.version_info[:2] != HELP_PYTHON:
        pytest.skip(f"--help digests are for Python {HELP_PYTHON[0]}.{HELP_PYTHON[1]}")
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.delenv("GRAVERKIT_CACHE_DIR", raising=False)
    assert record(argv) == GOLDEN[" ".join(argv)]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    os.environ.pop("GRAVERKIT_CACHE_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        print("GOLDEN = {")
        for argv in CASES:
            print(f"    {' '.join(argv)!r}: {record(argv)!r},")
        print("}")
