import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.oracle import reference_state_root
from perfbench.run import git_tree_hash
from repro import rlp
from repro.gethdb import schema
from repro.gethdb.database import DBConfig
from repro.sync.driver import FullSyncDriver, SyncConfig
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("mode", ["cache", "bare"])
def test_reference_root_matches_a_real_sync(mode):
    workload = WorkloadConfig(
        seed=11, initial_eoa_accounts=300, initial_contracts=40, txs_per_block=24
    )
    db = (
        DBConfig.cache_trace_config(64 * 1024)
        if mode == "cache"
        else DBConfig.bare_trace_config()
    )
    driver = FullSyncDriver(
        SyncConfig(db=db, warmup_blocks=5), WorkloadGenerator(workload)
    )
    result = driver.run(15)
    head = driver.db.peek(schema.LAST_BLOCK_KEY)
    header = rlp.decode(driver.db.peek(schema.header_key(result.head_number, head)))
    assert header[3] == reference_state_root(workload, 20)
    assert header[3] != reference_state_root(workload, 19)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_tree_hash_matches_git(tmp_path):
    tree = tmp_path / "tree"
    (tree / "pkg" / "__pycache__").mkdir(parents=True)
    (tree / "empty").mkdir()
    (tree / "pkg" / "mod.py").write_text("x = 1\n")
    (tree / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"\0")
    (tree / "pkg-a.txt").write_text("sorts before pkg/\n")
    (tree / "tool.sh").write_text("#!/bin/sh\n")
    (tree / "tool.sh").chmod(0o755)

    def git(*args):
        # the repository lives outside the hashed tree
        command = ["git", f"--git-dir={tmp_path / 'git'}", f"--work-tree={tree}", *args]
        return subprocess.run(
            command, cwd=tree, check=True, capture_output=True, text=True
        ).stdout.strip()

    git("init", "-q")
    git("add", "pkg/mod.py", "pkg-a.txt", "tool.sh")
    assert git_tree_hash(tree) == git("write-tree")


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sync-cache", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
