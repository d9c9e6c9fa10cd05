"""Every argv of the seeded CLI corpus writes the bytes it wrote when
``tests/data/cli_golden.json`` was made (see ``tests/cli_corpus.py``)."""

import cli_corpus


def test_every_argv_writes_its_golden_bytes(tmp_path):
    golden = cli_corpus.load_golden()
    cases = golden["cases"]
    argvs = cli_corpus.argvs()
    regenerate = "regenerate with: python tests/cli_corpus.py --write"
    stale = sorted(set(cases) - {cli_corpus.key(argv) for argv in argvs})
    assert not stale, (
        f"the golden file holds argvs the corpus no longer makes, first "
        f"{stale[0]}; {regenerate}"
    )
    for argv in argvs:
        want = cases.get(cli_corpus.key(argv))
        assert want is not None, f"argv not in the golden file: {argv}; {regenerate}"
        got = cli_corpus.record(argv, tmp_path)
        assert cli_corpus.same_record(want, got, golden), (
            f"first argv that differs: {argv}"
        )


def test_diff_names_each_stale_record(tmp_path, monkeypatch):
    # a golden record that no argv makes any more is listed by its key
    argv = ["classify", "--s", "2", "--n", "2"]
    golden = cli_corpus.load_golden()
    kept = cli_corpus.key(argv)
    cases = {kept: golden["cases"][kept], '["gone"]': golden["cases"][kept]}
    monkeypatch.setattr(cli_corpus, "argvs", lambda: [argv])
    monkeypatch.setattr(cli_corpus, "load_golden",
                        lambda: {**golden, "cases": cases})
    assert cli_corpus.diff(tmp_path) == ['stale: ["gone"]']
