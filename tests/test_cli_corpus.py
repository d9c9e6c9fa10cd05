"""Every argv of the seeded CLI corpus writes the bytes it wrote when
``tests/data/cli_golden.json`` was made (see ``tests/cli_corpus.py``)."""

import cli_corpus


def test_every_argv_writes_its_golden_bytes(tmp_path):
    golden = cli_corpus.load_golden()
    cases = golden["cases"]
    argvs = cli_corpus.argvs()
    regenerate = "regenerate with: python tests/cli_corpus.py --write"
    assert len({cli_corpus.key(argv) for argv in argvs}) == len(cases), (
        f"the golden file holds argvs the corpus no longer makes; {regenerate}"
    )
    for argv in argvs:
        want = cases.get(cli_corpus.key(argv))
        assert want is not None, f"argv not in the golden file: {argv}; {regenerate}"
        got = cli_corpus.record(argv, tmp_path)
        assert cli_corpus.same_record(want, got, golden), (
            f"first argv that differs: {argv}"
        )
