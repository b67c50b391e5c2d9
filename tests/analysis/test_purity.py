"""Golden tests for the sim-purity checker (RA2xx)."""

from .helpers import analyze_source, codes_of

SELECT = ["sim-purity"]


def run(tmp_path, source):
    return analyze_source(tmp_path, {"repro/net/mod.py": source},
                          select=SELECT)


def test_flags_real_concurrency_imports(tmp_path):
    result = run(tmp_path, (
        "import threading\n"
        "import socket\n"
        "from select import epoll\n"
        "import multiprocessing.pool\n"
    ))
    assert codes_of(result) == ["RA201"] * 4


def test_flags_function_level_import(tmp_path):
    result = run(tmp_path, (
        "def lazy():\n"
        "    import threading\n"
        "    return threading.Thread\n"
    ))
    assert codes_of(result) == ["RA201"]


def test_flags_blocking_calls_including_aliased(tmp_path):
    result = run(tmp_path, (
        "import time\n"
        "import time as t\n"
        "def f():\n"
        "    time.sleep(1)\n"
        "    t.sleep(1)\n"
        "    os.system('ls')\n"
    ))
    assert codes_of(result) == ["RA202"] * 3


def test_flags_from_imported_blocking_calls(tmp_path):
    result = run(tmp_path, (
        "from time import sleep\n"
        "from os import system as shell\n"
        "def f():\n"
        "    sleep(1)\n"
        "    shell('x')\n"
    ))
    assert codes_of(result) == ["RA202"] * 2
    assert [f.line for f in result.findings] == [4, 5]


def test_flags_entropy_reads(tmp_path):
    result = run(tmp_path, (
        "import os\n"
        "import secrets\n"
        "from uuid import uuid4\n"
        "key = os.urandom(16)\n"
    ))
    # secrets import, uuid4 from-import, os.urandom call
    assert codes_of(result) == ["RA203"] * 3


def test_sim_equivalents_pass(tmp_path):
    result = run(tmp_path, (
        "from repro.net.socket_sim import SimSocket\n"
        "def f(sim):\n"
        "    yield sim.timeout(0.5)\n"
        "    os.path.join('a', 'b')\n"
        "    time.perf_counter  # reference, not a call\n"
    ))
    assert result.findings == []


def test_optout(tmp_path):
    result = run(tmp_path, (
        "import threading  # analysis: allow[RA201]\n"
    ))
    assert result.findings == []
    assert result.suppressed == 1
