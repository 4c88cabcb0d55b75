from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    """The python block under README's ``## Library`` runs as written."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (## Library)", "exec"), {})
    mean, n_records, n_pairs = capsys.readouterr().out.splitlines()[0].split()
    assert float(mean) > 0.0
    assert int(n_records) > 0
    assert int(n_pairs) > 0
