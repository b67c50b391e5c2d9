"""Tests for the cost model, metrics and configuration presets."""

import pytest

from repro.core import (CONFIG_NAMES, ClientMetrics, CostModel,
                        make_server_config)
from repro.core.costmodel import CIPHER_PER_BYTE, NET_TX_FIXED, net_tx_cost
from repro.crypto.ops import CryptoOp, CryptoOpKind


# -- cost model ---------------------------------------------------------------

def test_rsa_costs_scale_with_bits():
    cm = CostModel()
    c1 = cm.software_cost(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=1024))
    c2 = cm.software_cost(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048))
    assert c2 > 3 * c1  # RSA private op ~ cubic in modulus size


def test_rsa_pub_much_cheaper_than_priv():
    cm = CostModel()
    pub = cm.software_cost(CryptoOp(CryptoOpKind.RSA_PUB, rsa_bits=2048))
    priv = cm.software_cost(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048))
    assert priv > 20 * pub


def test_p256_montgomery_flag_changes_costs():
    fast = CostModel(p256_montgomery=True)
    slow = CostModel(p256_montgomery=False)
    op = CryptoOp(CryptoOpKind.ECDSA_SIGN, curve="P-256")
    ratio = slow.software_cost(op) / fast.software_cost(op)
    assert ratio == pytest.approx(2.33, rel=0.02)  # the paper's figure
    # Other curves are unaffected.
    other = CryptoOp(CryptoOpKind.ECDSA_SIGN, curve="P-384")
    assert slow.software_cost(other) == fast.software_cost(other)


def test_binary_curves_slower_than_p256():
    cm = CostModel()
    p256 = cm.software_cost(CryptoOp(CryptoOpKind.ECDH_COMPUTE,
                                     curve="P-256"))
    b283 = cm.software_cost(CryptoOp(CryptoOpKind.ECDH_COMPUTE,
                                     curve="B-283"))
    assert b283 > 5 * p256


def test_cipher_cost_linear_in_bytes():
    cm = CostModel()
    small = cm.software_cost(CryptoOp(CryptoOpKind.RECORD_CIPHER,
                                      nbytes=1024))
    big = cm.software_cost(CryptoOp(CryptoOpKind.RECORD_CIPHER,
                                    nbytes=16384))
    assert big > 2 * small
    assert big - small == pytest.approx(CIPHER_PER_BYTE * (16384 - 1024))


def test_unknown_lookups_raise():
    cm = CostModel()
    with pytest.raises(ValueError):
        cm.software_cost(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=999))
    with pytest.raises(ValueError):
        cm.software_cost(CryptoOp(CryptoOpKind.ECDSA_SIGN, curve="P-999"))


def test_net_tx_cost():
    assert net_tx_cost(0) == pytest.approx(NET_TX_FIXED)
    assert net_tx_cost(16384) > net_tx_cost(1024)


# -- configuration presets ------------------------------------------------------

def test_all_config_presets_valid():
    for name in CONFIG_NAMES:
        cfg = make_server_config(name, workers=2)
        cfg.validate()


def test_preset_shapes():
    assert not make_server_config("SW", 2).uses_qat
    qs = make_server_config("QAT+S", 2)
    assert qs.uses_qat and not qs.async_offload
    qa = make_server_config("QAT+A", 2)
    assert qa.async_offload
    assert qa.ssl_engine.qat_poll_mode == "timer"
    assert qa.async_notify_mode == "fd"
    ah = make_server_config("QAT+AH", 2)
    assert ah.ssl_engine.qat_poll_mode == "heuristic"
    assert ah.async_notify_mode == "fd"
    qt = make_server_config("QTLS", 2)
    assert qt.ssl_engine.qat_poll_mode == "heuristic"
    assert qt.async_notify_mode == "queue"


def test_unknown_config_rejected():
    with pytest.raises(ValueError, match="unknown configuration"):
        make_server_config("GPU", 2)


def test_config_overrides():
    cfg = make_server_config("QTLS", 2,
                             qat_heuristic_poll_asym_threshold=96,
                             session_cache_enabled=False)
    assert cfg.ssl_engine.qat_heuristic_poll_asym_threshold == 96
    assert not cfg.session_cache_enabled


def test_unknown_override_rejected():
    with pytest.raises(ValueError, match="unknown overrides"):
        make_server_config("QTLS", 2, bogus_flag=True)


# -- metrics ------------------------------------------------------------------------

def test_cps_windowing():
    m = ClientMetrics()
    for t in (0.05, 0.15, 0.25, 0.35):
        m.record_handshake(t, 0.001, resumed=False)
    assert m.cps(0.1, 0.3) == pytest.approx(2 / 0.2)
    assert m.cps(0.0, 1.0) == pytest.approx(4.0)


def test_cps_filters_resumed():
    m = ClientMetrics()
    m.record_handshake(0.1, 0.001, resumed=False)
    m.record_handshake(0.2, 0.001, resumed=True)
    assert m.cps(0.0, 1.0, resumed=True) == pytest.approx(1.0)
    assert m.cps(0.0, 1.0, resumed=False) == pytest.approx(1.0)


def test_throughput_and_latency():
    m = ClientMetrics()
    m.record_request(0.1, latency=0.002, payload_bytes=1000)
    m.record_request(0.2, latency=0.004, payload_bytes=3000)
    assert m.throughput_bps(0.0, 1.0) == pytest.approx(4000 * 8)
    assert m.mean_latency(0.0, 1.0) == pytest.approx(0.003)


def test_empty_window_rejected():
    m = ClientMetrics()
    with pytest.raises(ValueError):
        m.cps(0.5, 0.5)
    with pytest.raises(ValueError):
        m.mean_latency(0.0, 1.0)  # no events -> mean of empty
