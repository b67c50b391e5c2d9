"""Tests for the appendix A.7 conf-text parser."""

import pytest

from repro.server.config import SslEngineConfig
from repro.server.conf_text import (ConfError, parse_conf,
                                    server_config_from_text)

PAPER_EXAMPLE = """
worker_processes 8;
load_module modules/ngx_ssl_engine_qat_module.so;
ssl_engine {
    use qat_engine;
    default_algorithm RSA,EC,DH,PKEY_CRYPTO;
    qat_engine {
        qat_offload_mode async;
        qat_notify_mode poll;
        qat_poll_mode heuristic;
        qat_heuristic_poll_asym_threshold 48;
        qat_heuristic_poll_sym_threshold 24;
    }
}
"""


def test_paper_appendix_example_parses():
    cfg = server_config_from_text(PAPER_EXAMPLE)
    assert cfg.worker_processes == 8
    assert cfg.ssl_engine.use_engine == "qat_engine"
    assert cfg.ssl_engine.default_algorithm == ("RSA", "EC", "DH",
                                                "PKEY_CRYPTO")
    assert cfg.ssl_engine.qat_offload_mode == "async"
    assert cfg.ssl_engine.qat_poll_mode == "heuristic"
    assert cfg.ssl_engine.qat_heuristic_poll_asym_threshold == 48
    assert cfg.ssl_engine.qat_heuristic_poll_sym_threshold == 24
    assert cfg.uses_qat and cfg.async_offload


def test_parse_tree_structure():
    tree = parse_conf("a 1;\nb { c 2; d { e 3; } }")
    assert tree["a"] == ["1"]
    assert tree["b"]["c"] == ["2"]
    assert tree["b"]["d"]["e"] == ["3"]


def test_comments_ignored():
    tree = parse_conf("# header\nx 1; # trailing\n")
    assert tree == {"x": ["1"]}


def test_suite_and_curve_directives():
    cfg = server_config_from_text(
        "ssl_ciphers ECDHE-RSA:TLS-RSA;\nssl_ecdh_curve P-384:P-256;\n"
        "ssl_protocols TLSv1.2;\n")
    assert cfg.suites == ("ECDHE-RSA", "TLS-RSA")
    assert cfg.curves == ("P-384", "P-256")


def test_tls13_protocol():
    cfg = server_config_from_text(
        "ssl_ciphers TLS1.3-ECDHE-RSA;\nssl_protocols TLSv1.3;")
    assert cfg.tls_version == "1.3"


def test_notify_mode_directive():
    cfg = server_config_from_text("ssl_asynch_notify queue;")
    assert cfg.async_notify_mode == "queue"


def test_timer_poll_settings():
    cfg = server_config_from_text(
        "ssl_engine { use qat_engine; "
        "qat_engine { qat_poll_mode timer; "
        "qat_timer_poll_interval 0.00001; } }")
    assert cfg.ssl_engine.qat_poll_mode == "timer"
    assert cfg.ssl_engine.qat_timer_poll_interval == pytest.approx(1e-5)


@pytest.mark.parametrize("bad,msg", [
    ("bogus_directive on;", "unknown directive"),
    ("x 1", "missing ';'"),
    ("{ }", "block without a name"),
    ("a { b 1;", "unbalanced"),
    ("a 1; }", "unbalanced"),
    (";", "empty directive"),
    ("ssl_engine { whatever 1; }", "unknown ssl_engine"),
    ("ssl_engine { qat_engine { nope 1; } }", "unknown qat_engine"),
    ("ssl_protocols SSLv3;", "unsupported protocol"),
    ("ssl_asynch_notify telepathy;", "unknown notify mode"),
    ("worker_processes 1 2;", "exactly one"),
    ("keepalive_timeout 0;", "unknown directive"),
    ("ssl_engine { remote_accelerator { window 8; } }",
     "unknown ssl_engine directive"),
    ("ssl_engine { qat_engine { qat_batch_timeout 0.001; } }",
     "unknown qat_engine directive"),
    ("ssl_engine { use qat_engine; offload_backend software; }",
     "offload_backend: unknown offload backend 'software'"),
])
def test_malformed_rejected(bad, msg):
    with pytest.raises(ConfError, match=msg):
        server_config_from_text(bad)


def test_software_offload_backend_rejected():
    # Without an accelerator the engine is the software one: omit
    # `use qat_engine` instead.
    with pytest.raises(ValueError,
                       match="offload_backend: .*expected qat or remote"):
        SslEngineConfig(offload_backend="software").validate()


def test_validation_applies():
    with pytest.raises(ValueError):
        server_config_from_text("worker_processes 0;")


def test_pool_and_admission_directives():
    cfg = server_config_from_text(
        "ssl_engine { use qat_engine; offload_admission_limit 16; "
        "qat_engine { qat_instance_policy dynamic; "
        "qat_rebalance_interval 0.002; } }")
    assert cfg.ssl_engine.qat_instance_policy == "dynamic"
    assert cfg.ssl_engine.qat_rebalance_interval == pytest.approx(2e-3)
    assert cfg.ssl_engine.offload_admission_limit == 16


def test_pool_directive_defaults():
    cfg = server_config_from_text("ssl_engine { use qat_engine; }")
    assert cfg.ssl_engine.qat_instance_policy == "static"
    assert cfg.ssl_engine.offload_admission_limit == 0  # unbounded


@pytest.mark.parametrize("bad,msg", [
    ("ssl_engine { use qat_engine; "
     "qat_engine { qat_instance_policy bogus; } }",
     "unknown instance policy"),
    ("ssl_engine { use qat_engine; offload_admission_limit 0; }",
     "offload_admission_limit must be >= 1"),
    ("ssl_engine { use qat_engine; offload_admission_limit -3; }",
     "offload_admission_limit must be >= 1"),
    ("ssl_engine { use qat_engine; "
     "qat_engine { qat_rebalance_interval 0; } }",
     "qat_rebalance_interval must be positive"),
    ("ssl_engine { use qat_engine; "
     "qat_engine { qat_rebalance_interval -0.5; } }",
     "qat_rebalance_interval must be positive"),
])
def test_pool_directives_rejected(bad, msg):
    with pytest.raises(ConfError, match=msg):
        server_config_from_text(bad)


def test_scheduler_directives():
    cfg = server_config_from_text(
        "ssl_engine { use qat_engine; "
        "offload_sched_policy weighted-fair; "
        "offload_sched_weights handshake-asym=6,record-cipher=2; }")
    eng = cfg.ssl_engine
    assert eng.offload_sched_policy == "weighted-fair"
    assert eng.offload_sched_weights == {"handshake-asym": 6,
                                         "record-cipher": 2}


def test_scheduler_directive_defaults():
    cfg = server_config_from_text("ssl_engine { use qat_engine; }")
    assert cfg.ssl_engine.offload_sched_policy == "fifo"
    assert cfg.ssl_engine.offload_sched_weights == {}


@pytest.mark.parametrize("bad,msg", [
    ("ssl_engine { use qat_engine; offload_sched_policy lottery; }",
     "unknown scheduling policy"),
    ("ssl_engine { use qat_engine; "
     "offload_sched_weights bulk=3; }",
     "unknown scheduling class"),
    ("ssl_engine { use qat_engine; "
     "offload_sched_weights prf=0; }",
     "must be >= 1"),
    ("ssl_engine { use qat_engine; "
     "offload_sched_weights prf; }",
     "expected class=weight"),
    ("ssl_engine { use qat_engine; "
     "offload_sched_weights prf=two; }",
     "must be an integer"),
])
def test_scheduler_directives_rejected(bad, msg):
    with pytest.raises(ConfError, match=msg):
        server_config_from_text(bad)


def test_interrupt_notify_requires_static_policy():
    # Cross-field validation happens at the config layer, after parse.
    with pytest.raises(ValueError, match="static instance"):
        server_config_from_text(
            "ssl_engine { use qat_engine; qat_engine { "
            "qat_notify_mode interrupt; qat_instance_policy shared; } }")


def test_lifecycle_directives():
    cfg = server_config_from_text("""
        worker_respawn off;
        max_respawns 2;
        worker_drain_timeout 0.03;
    """)
    assert cfg.worker_respawn is False
    assert cfg.max_respawns == 2
    assert cfg.worker_drain_timeout == 0.03


def test_lifecycle_defaults():
    cfg = server_config_from_text("worker_processes 2;")
    assert cfg.worker_respawn is True
    assert cfg.max_respawns == 5
    assert cfg.worker_drain_timeout == 50e-3


@pytest.mark.parametrize("bad,msg", [
    ("max_respawns -1;", "max_respawns must be >= 0"),
    ("worker_drain_timeout 0;", "worker_drain_timeout must be positive"),
    ("worker_drain_timeout -0.1;",
     "worker_drain_timeout must be positive"),
])
def test_lifecycle_directives_rejected(bad, msg):
    with pytest.raises(ConfError, match=msg):
        server_config_from_text(bad)
