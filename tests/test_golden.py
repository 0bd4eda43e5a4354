"""Golden SHA-256 digests of fixed-seed CLI runs.

Each digest covers stdout plus, for runs with a transcripts directory, every
transcript's file name and bytes in name order.  A refactor that keeps these
digests keeps every number and every transcript byte the commands produce.

Simplex ``multistring`` runs with r >= 3 have a degenerate top eigenspace;
the committed state is the canonical projection onto that eigenspace, so
their digest is pinned like any other.
"""

import hashlib

import pytest

from mistrustq.cli import main

TRANSCRIPTS = "<transcripts>"  # replaced by a fresh directory per run

COINTOSS = ["run", "--protocol", "cointoss", "--batches", "4", "--pairs", "8",
            "--trials", "20", "--transcripts-dir", TRANSCRIPTS]
BITWISE = ["run", "--protocol", "bitwise", "--theta", "0.3", "--n", "4",
           "--trials", "20", "--transcripts-dir", TRANSCRIPTS]
CODEBOOK = ["run", "--protocol", "codebook", "--trials", "20",
            "--transcripts-dir", TRANSCRIPTS]

GOLDEN = [
    pytest.param(
        ["bounds", "--theta", "0.05,0.3,1.0", "--n", "2,8", "--r", "2", "--r2", "2,8"],
        "c407c27d7cfa116d04d86faa6dd002e3d7347c5e725f2d269d1bba4decec3012",
        id="bounds",
    ),
    pytest.param(
        ["run", "--protocol", "bitwise", "--theta", "0.3", "--n", "2",
         "--alice", "cheat_state", "--seed", "31", "--trials", "200"],
        "9e05359b7a8edf3a317f083c5b7cdd4caf869e36361726c1e70b24916db628e0",
        id="run-bitwise-cheat_state",
    ),
    pytest.param(
        ["run", "--protocol", "codebook", "--dim", "3", "--construction", "simplex",
         "--seed", "32", "--trials", "100", "--format", "json"],
        "78787993e422a5392f0df85096d9591e3b796e4659ba9164ebc5b63afbed9003",
        id="run-codebook-simplex",
    ),
    pytest.param(
        ["run", "--protocol", "cointoss", "--batches", "4", "--pairs", "8",
         "--seed", "33", "--trials", "100"],
        "cbc620eb6f3d6a0c2f3c8341c164aa0208cd6193fdcb51e5cddeb096ae9ffa0c",
        id="run-cointoss",
    ),
    pytest.param(
        ["sweep", "--metric", "advantage", "--variable", "M", "--values", "4,16,64",
         "--pairs", "32", "--trials", "200", "--seed", "34"],
        "01caef851fffb2cf1130eba7d18729bff84957a87f2a1441db354d1bf788c2c4",
        id="sweep-advantage",
    ),
    pytest.param(
        ["sweep", "--metric", "cheat_bound", "--variable", "theta",
         "--values", "0.1,0.5,1.0", "--seed", "35"],
        "9a6006b0e18170e72a5daf6c9cc8d54a44b9f6a3eb6bf71d7c3f8b2944111a69",
        id="sweep-cheat_bound",
    ),
    pytest.param(
        COINTOSS + ["--seed", "41"],
        "ae1add2fcdf060e461d0cbd6f65a54248db79618352b6912625df2ca51131992",
        id="run-cointoss-honest-transcripts",
    ),
    pytest.param(
        COINTOSS + ["--alice", "tamper:fraction=0.25,target_bit=1", "--seed", "42"],
        "1fba801ff09fadb2fa0b5119e886fd753491c671c1370da4e7be7cb9dc4a92d0",
        id="run-cointoss-tamper-transcripts",
    ),
    pytest.param(
        COINTOSS + ["--alice", "tamper_one_batch:batch_index=1,target_bit=1",
                    "--seed", "43"],
        "316c1e313e1b570b99e650461276bc28a228419626ec0847ab42ca77ff754b64",
        id="run-cointoss-tamper_one_batch-transcripts",
    ),
    pytest.param(
        COINTOSS + ["--bob", "best_of_m", "--seed", "44"],
        "61b4d688879fdfe16a4865268bb8faa412bd08973d0831bba167dc391116f0dc",
        id="run-cointoss-best_of_m-transcripts",
    ),
    pytest.param(
        ["sweep", "--metric", "detection", "--variable", "M", "--values", "2,3,4",
         "--pairs", "16", "--tamper-fraction", "0.05", "--trials", "200",
         "--seed", "45"],
        "134d4149a654c854b36cd2dc1bc1bc4229470a02e57a3b017c6ab655916d2001",
        id="sweep-detection",
    ),
    pytest.param(
        ["sweep", "--metric", "codebook_bound", "--variable", "r",
         "--values", "1,2,4,8", "--epsilon", "0.25", "--seed", "46"],
        "3a83f727ab66511c813ef2f6df92b031f46510c27e96e94324835e0bf81c5061",
        id="sweep-codebook_bound",
    ),
    pytest.param(
        BITWISE + ["--seed", "51"],
        "178417b5eb9f539bcd7ae0e3b0162c1fe58b51bf134d5d65754eb5d1fc7d5b0d",
        id="run-bitwise-honest-transcripts",
    ),
    pytest.param(
        BITWISE + ["--alice", "cheat_state", "--seed", "52"],
        "27248a145028dc3ce8046d3ea70ef8d3d17047ba2024b222fa874332874f5b0a",
        id="run-bitwise-cheat_state-transcripts",
    ),
    pytest.param(
        CODEBOOK + ["--seed", "53"],
        "78e56f7ee1291c74914ca43d86586f82f21e45ff57ab39026642d7b30bdcbcbb",
        id="run-codebook-honest-transcripts",
    ),
    pytest.param(
        CODEBOOK + ["--alice", "multistring:r=2", "--seed", "54"],
        "e709a430cacda6debc055a93a9e458ace3ca8d6ecd3bbb0990e87455df99c56a",
        id="run-codebook-multistring-transcripts",
    ),
    pytest.param(
        CODEBOOK + ["--dim", "3", "--construction", "simplex",
                    "--alice", "multistring:r=3", "--seed", "55"],
        "78ca6090987290df732506b4f047ddc20af7413fec0434b1ded5c2b986a786ca",
        id="run-codebook-simplex-multistring-transcripts",
    ),
]


def cli_digest(argv, capsys, tmp_path) -> str:
    directory = tmp_path / "transcripts"
    argv = [str(directory) if a == TRANSCRIPTS else a for a in argv]
    capsys.readouterr()
    assert main(argv) == 0
    h = hashlib.sha256(capsys.readouterr().out.encode())
    if directory.exists():
        for path in sorted(directory.iterdir()):
            h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN)
def test_golden_digest(argv, digest, capsys, tmp_path):
    assert cli_digest(argv, capsys, tmp_path) == digest
