"""The export directory's lifetime, seen from outside the exporting process.

A process that exits normally removes its export directory at exit; one
that is SIGKILLed runs no exit hook, so the next process to create an
export directory removes the dead one's.  Liveness is the directory's
``flock``, not the pid in its name: a live holder's directory survives
under any pid.
"""

import os
import signal
import subprocess
import sys

import repro
from repro.db.shm import (
    EXPORT_PREFIX,
    EXPORT_ROOT,
    export_table_spans,
    release_exports,
)
from repro.db.table import Table

CHILD = """
import os, signal, sys
from repro.db.shm import export_table_spans
from repro.db.table import Table

table = Table.from_columns("child", {"x": [1, 2, 3]})
(export,) = export_table_spans(table, ["x"])
print(os.getpid(), os.path.dirname(export.columns["x"].path), flush=True)
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
"""

#: A live child whose directory carries a pid that is not its own, as a
#: process in another PID namespace sharing ``/dev/shm`` would look.
FOREIGN_CHILD = """
import os, sys
from repro.db.shm import EXPORT_PREFIX, export_table_spans
from repro.db.table import Table

table = Table.from_columns("child", {"x": [1, 2, 3]})
(export,) = export_table_spans(table, ["x"])
directory = os.path.dirname(export.columns["x"].path)
foreign = os.path.join(os.path.dirname(directory), f"{EXPORT_PREFIX}{sys.argv[1]}-foreign")
os.rename(directory, foreign)  # the lock stays with the directory
print(foreign, flush=True)
sys.stdin.read()  # hold the lock until the test closes stdin
"""


def _child_env():
    source = os.path.dirname(os.path.dirname(repro.__file__))
    return dict(os.environ, PYTHONPATH=source)


def _export_afresh():
    """Create a fresh export directory in this process (which sweeps)."""
    release_exports()
    table = Table.from_columns("parent", {"x": [4, 5, 6]})
    (export,) = export_table_spans(table, ["x"])
    return table, export


def _child_export(how):
    """Run a child that exports one column and ends ``how``; its directory."""
    child = subprocess.run(
        [sys.executable, "-c", CHILD, how], env=_child_env(), capture_output=True, text=True
    )
    expected = -signal.SIGKILL if how == "kill" else 0
    assert child.returncode == expected, child.stderr
    pid, directory = child.stdout.split()
    assert os.path.dirname(directory) == EXPORT_ROOT
    assert os.path.basename(directory).startswith(f"{EXPORT_PREFIX}{pid}-")
    return directory


def test_a_normal_exit_removes_the_directory():
    directory = _child_export("exit")
    assert not os.path.exists(directory)


def test_the_next_export_removes_a_killed_process_directory():
    directory = _child_export("kill")
    assert os.listdir(directory)  # no exit hook ran: its file is still there
    table, export = _export_afresh()
    try:
        assert not os.path.exists(directory)
        # A live process's directory is left alone: this one's own.
        assert os.path.exists(export.columns["x"].path)
    finally:
        release_exports(table)


def test_a_live_lock_holder_is_kept_whatever_pid_its_name_carries():
    unused_pid = "99999999"  # above any kernel's pid_max: no such process
    with subprocess.Popen(
        [sys.executable, "-c", FOREIGN_CHILD, unused_pid],
        env=_child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        try:
            foreign = child.stdout.readline().strip()
            assert os.path.basename(foreign).startswith(f"{EXPORT_PREFIX}{unused_pid}-")
            table, _ = _export_afresh()
            release_exports(table)
            assert os.listdir(foreign)  # locked by a live process: kept
        finally:
            child.stdin.close()
            assert child.wait(timeout=60) == 0
    # The child's exit hook removed the path it created, not this one;
    # with its lock gone, the next sweep removes the directory.
    assert os.path.exists(foreign)
    table, _ = _export_afresh()
    release_exports(table)
    assert not os.path.exists(foreign)
