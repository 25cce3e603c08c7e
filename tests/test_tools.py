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
                             *(f"cli/{i:02d}.out" for i in range(len(tool.CLI_CALLS)))]
    assert first["certify-large/00.out"].startswith(b"$ decon run ")
    assert first["certify-large/00.out"].endswith(b"  wrote <OUT>/nids.csv\nexit=0\n")
