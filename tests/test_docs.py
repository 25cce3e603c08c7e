import pathlib
import re

from decon import algorithms

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
