import importlib.util
import pathlib

from decon import harness, linalg

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _dump_outputs():
    path = ROOT / "tools" / "dump_outputs.py"
    spec = importlib.util.spec_from_file_location("dump_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_dump_outputs_is_the_same_with_warm_caches(tmp_path):
    # The first dump starts from empty caches, the second meets every
    # eigensolve and instance the first cached; not one byte may move.
    tool = _dump_outputs()
    workloads = tool.load_workloads(str(ROOT))
    linalg.clear_eig_cache()
    harness.clear_instance_cache()
    for name in ("first", "second"):
        tool.dump(workloads, str(tmp_path / name), 2, ["certify-large"])
    first, second = _tree(tmp_path / "first"), _tree(tmp_path / "second")
    assert first == second
    assert sorted(first) == ["certify-large/00.out", "certify-large/01.out",
                             "certify-large/extra.csv", "certify-large/nids.csv",
                             *(f"cli/{i:02d}.out" for i in range(len(tool.CLI_CALLS))),
                             "cli/extra_theta.csv", "cli/floor.csv", "cli/large.csv",
                             "cli/line30.csv", "cli/problem.json", "cli/theta.csv"]
    assert first["certify-large/00.out"].startswith(b"$ decon run ")
    assert first["certify-large/00.out"].endswith(b"  wrote <OUT>/nids.csv\nexit=0\n")


def _compare_dumps():
    path = ROOT / "tools" / "compare_dumps.py"
    spec = importlib.util.spec_from_file_location("compare_dumps", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_dumps_names_each_moved_column_and_its_largest_change(tmp_path, capsys):
    tool = _compare_dumps()
    base, head = tmp_path / "base", tmp_path / "head"
    for root, lyapunov, ratio, out in ((base, "2", "0.5", "exit=0\n"),
                                       (head, "2.0000000000000004", "", "exit=1\n")):
        (root / "w").mkdir(parents=True)
        (root / "w" / "run.csv").write_text(f"k,residual,lyapunov,ratio\n0,1,4,\n1,0.5,{lyapunov},{ratio}\n")
        (root / "w" / "00.out").write_text(out)
        (root / "same.csv").write_text("k\n0\n")
    (head / "new.out").write_text("")
    assert tool.main([str(base), str(head)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "- `new.out`: only in the head",
        "- `w/00.out`: differs",
        "- `w/run.csv`: `lyapunov` 1/2 cells, max relative change 2.2e-16; "
        "`ratio` 1/2 cells, max relative change inf",
    ]
    assert tool.compare(str(base), str(base)) == ["- no file differs"]
    assert tool.main([str(base), str(tmp_path / "missing")]) == 2
