import importlib
import inspect
import pathlib
import re
import shlex

from decon import algorithms, cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    rho, ok = capsys.readouterr().out.split()
    assert 0.0 < float(rho) < 1.0 and ok == "True"


def test_readme_names_every_stepsize_of_the_table():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Named stepsizes", 1)[1].split("\n#", 1)[0]
    names = re.findall(r"^\| `([\w-]+)` \|", section, re.M)
    assert names == list(algorithms.STEPSIZES)


def test_module_map_names_only_what_exists():
    # Each backticked identifier in a module-map row must be an attribute of
    # that row's module, of a class the module defines, or an algorithm
    # variant; dotted names, calls and the CLI line are not identifiers.
    text = README.read_text(encoding="utf-8")
    section = text.split("## Module map", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)`\s*\| (.*) \|$", section, re.M)
    assert rows
    for module_name, cell in rows:
        module = importlib.import_module(f"decon.{module_name}")
        owners = [module] + [v for v in vars(module).values()
                             if inspect.isclass(v) and v.__module__ == module.__name__]
        for name in re.findall(r"`([^`]+)`", cell):
            if not name.isidentifier() or name in algorithms.VARIANTS:
                continue
            assert any(hasattr(owner, name) for owner in owners), (module_name, name)


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    # Every `decon` line of the CLI section, continuations joined and comments
    # dropped, in a fresh directory holding the graph file one line reads.
    # fig1's dgd_fast curve diverges by design, so that line exits 2.
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", "").splitlines()]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text("0 1\n1 2\n2 3\n3 4\n4 0\n1 3\n")
    codes = []
    for argv in lines:
        assert argv[0] == "decon", argv
        codes.append(cli.main(argv[1:]))
    assert [argv[1] for argv in lines] == ["run", "run", "validate-mixing", "bounds"]
    assert codes == [2, 0, 0, 0], capsys.readouterr().err
    assert len(list((tmp_path / "out").glob("*.csv"))) == 6 and (tmp_path / "trace.csv").exists()
