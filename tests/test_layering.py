"""The import-layering lint passes on the shipped tree and catches regressions."""

import ast
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_layering.py"

sys.path.insert(0, str(TOOL.parent))
from check_layering import (  # noqa: E402
    LAYERS,
    NAME_DISPATCH,
    PREFIX_SNIFF,
    UNSAFE_DESERIALISE,
    block_result_constructions,
)


def test_tree_is_clean():
    proc = subprocess.run([sys.executable, str(TOOL)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "layering OK" in proc.stdout


def test_rank_ordering_matches_architecture():
    assert LAYERS["formats"] < LAYERS["arch"] < LAYERS["sim"]
    assert LAYERS["registry"] < LAYERS["sim"]
    assert LAYERS["sim"] < LAYERS["resilience"] <= LAYERS["perf"]
    assert LAYERS["dse"] < LAYERS["runtime"] < LAYERS["cli"]


def test_prefix_sniff_pattern():
    assert PREFIX_SNIFF.search('if name.startswith("uni-stc"):')
    assert PREFIX_SNIFF.search("stc.startswith('nv-dtc-2:4')")
    assert not PREFIX_SNIFF.search('name.startswith("band:")')


def test_unsafe_deserialise_pattern():
    assert UNSAFE_DESERIALISE.search("np.load(path, allow_pickle=True)")
    assert UNSAFE_DESERIALISE.search("import pickle")
    assert UNSAFE_DESERIALISE.search("import os, pickle")
    assert UNSAFE_DESERIALISE.search("    from pickle import loads")
    assert UNSAFE_DESERIALISE.search("obj = pickle.loads(blob)")
    assert UNSAFE_DESERIALISE.search("code = marshal.load(fh)")
    assert not UNSAFE_DESERIALISE.search("np.load(path, allow_pickle=False)")
    assert not UNSAFE_DESERIALISE.search("# never by pickled arrays")
    assert not UNSAFE_DESERIALISE.search("json.loads(raw)")


def test_dispatch_pattern_allows_data_tables():
    assert NAME_DISPATCH.search('"uni-stc": UniSTC,')
    assert NAME_DISPATCH.search("'rm-stc': RmSTC}")
    assert not NAME_DISPATCH.search('"uni-stc": 75.0,')
    assert not NAME_DISPATCH.search('"ds-stc": [1, 2],')


def test_block_result_only_built_by_simulate_block():
    allowed = (
        "class Model:\n"
        "    def simulate_block(self, task):\n"
        "        return BlockResult(cycles=1, products=0)\n"
    )
    assert block_result_constructions(ast.parse(allowed)) == []
    violating = (
        "def simulate_blocks(self, tasks):\n"
        "    return [BlockResult(cycles=1, products=0) for _ in tasks]\n"
        "def box(rows):\n"
        "    return base.BlockResult(cycles=int(rows[0, 0]), products=0)\n"
        "def simulate_block(self, task):\n"
        "    def helper():\n"
        "        return BlockResult(cycles=1, products=0)\n"
        "    return helper()\n"
    )
    assert block_result_constructions(ast.parse(violating)) == [2, 4, 7]
