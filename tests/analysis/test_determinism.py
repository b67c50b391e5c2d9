"""Golden tests for the determinism checker (RA1xx)."""

from .helpers import analyze_source, codes_of

SELECT = ["determinism"]


def run(tmp_path, source):
    return analyze_source(tmp_path, {"repro/sim/mod.py": source},
                          select=SELECT)


# -- RA101: wall clocks ----------------------------------------------------

def test_flags_wall_clock_reads(tmp_path):
    result = run(tmp_path, (
        "import time\n"
        "a = time.time()\n"
        "b = time.monotonic()\n"
        "c = time.perf_counter_ns()\n"
    ))
    assert codes_of(result) == ["RA101", "RA101", "RA101"]


def test_flags_aliased_wall_clock(tmp_path):
    result = run(tmp_path, (
        "from time import monotonic as mono\n"
        "import time as walltime\n"
        "a = mono()\n"
        "b = walltime.perf_counter()\n"
    ))
    assert codes_of(result) == ["RA101", "RA101"]


def test_flags_argless_datetime_now_and_utcnow(tmp_path):
    result = run(tmp_path, (
        "from datetime import datetime\n"
        "a = datetime.now()\n"
        "b = datetime.utcnow()\n"
        "c = datetime.now(tz)  # tz-aware from explicit source: still wall\n"
    ))
    # argless now() and utcnow() flag; now(tz) passes (explicit arg —
    # the regex lint's rule, kept for compatibility)
    assert codes_of(result) == ["RA101", "RA101"]


def test_sim_now_passes(tmp_path):
    result = run(tmp_path, (
        "def step(sim):\n"
        "    return sim.now + 1.0\n"
    ))
    assert result.findings == []


# -- RA102: global / unseeded RNG ------------------------------------------

def test_flags_global_random_draws(tmp_path):
    result = run(tmp_path, (
        "import random\n"
        "a = random.random()\n"
        "b = random.shuffle([1])\n"
    ))
    assert codes_of(result) == ["RA102", "RA102"]


def test_flags_numpy_global_state_and_argless_default_rng(tmp_path):
    result = run(tmp_path, (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "np.random.seed(0)\n"
        "a = np.random.random()\n"
        "rng = default_rng()\n"
    ))
    assert codes_of(result) == ["RA102", "RA102", "RA102"]


def test_seeded_streams_pass(tmp_path):
    result = run(tmp_path, (
        "import random\n"
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "r = random.Random(7)\n"
        "a = r.random()\n"
        "rng = default_rng(7)\n"
        "b = np.random.default_rng(seed)\n"
    ))
    assert result.findings == []


# -- RA103: set-ordering leaks ---------------------------------------------

def test_flags_set_iteration(tmp_path):
    result = run(tmp_path, (
        "def f(items):\n"
        "    for x in set(items):\n"
        "        use(x)\n"
        "    return [y for y in {1, 2, 3}]\n"
    ))
    assert codes_of(result) == ["RA103", "RA103"]


def test_flags_list_of_set(tmp_path):
    result = run(tmp_path, "names = list(set(raw))\n")
    assert codes_of(result) == ["RA103"]


def test_sorted_set_passes(tmp_path):
    result = run(tmp_path, (
        "def f(items):\n"
        "    for x in sorted(set(items)):\n"
        "        use(x)\n"
        "    return sorted({1, 2})\n"
    ))
    assert result.findings == []


# -- RA104: id() ordering --------------------------------------------------

def test_flags_id_in_sort_key_and_hash(tmp_path):
    result = run(tmp_path, (
        "a = sorted(objs, key=lambda o: id(o))\n"
        "objs.sort(key=id)\n"
        "h = hash(id(x))\n"
    ))
    # objs.sort(key=id) passes no Call to id() — key=id is a bare
    # reference; only key expressions *calling* id() flag.
    assert codes_of(result) == ["RA104", "RA104"]


def test_id_membership_passes(tmp_path):
    result = run(tmp_path, (
        "def f(x, seen):\n"
        "    if id(x) in seen:\n"
        "        return True\n"
        "    seen.add(id(x))\n"
        "    return False\n"
    ))
    assert result.findings == []


# -- opt-outs --------------------------------------------------------------

def test_legacy_and_bracketed_optouts(tmp_path):
    # The retired regex lint's ``# determinism: allowed`` mark no longer
    # suppresses anything; only the bracketed ``analysis: allow`` does.
    result = run(tmp_path, (
        "import time\n"
        "a = time.time()  # determinism: allowed\n"
        "b = time.time()  # analysis: allow[RA101]\n"
    ))
    assert [f.line for f in result.findings] == [2]
    assert result.suppressed == 1
