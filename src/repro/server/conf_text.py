"""Nginx-style configuration text parser (artifact appendix A.7).

QTLS extends Nginx's engine setting into an *SSL Engine Framework*
configured directly in the conf file. This module parses that syntax::

    worker_processes 8;
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

Unknown directives and out-of-range values raise :class:`ConfError`,
like nginx's config check does. Value checks live in
:meth:`ServerConfig.validate`; the parser checks only the syntax, plus
``offload_admission_limit >= 1`` (conf text disables the cap by
omitting the directive, where the config field uses 0).
"""

from __future__ import annotations

import re
from typing import Dict, List, Union

from .config import ServerConfig, SslEngineConfig

__all__ = ["parse_conf", "server_config_from_text", "ConfError"]

Block = Dict[str, Union[List[str], "Block"]]


class ConfError(ValueError):
    """Malformed, unknown or out-of-range configuration."""


_TOKEN = re.compile(r"""
    (?P<comment>\#[^\n]*)
  | (?P<brace_open>\{)
  | (?P<brace_close>\})
  | (?P<semi>;)
  | (?P<word>[^\s{};#]+)
  | (?P<space>\s+)
""", re.VERBOSE)


def _tokenize(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:  # pragma: no cover - regex covers all chars
            raise ConfError(f"cannot tokenize near {text[pos:pos + 20]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind in ("comment", "space"):
            continue
        yield kind, m.group()


def parse_conf(text: str) -> Block:
    """Parse conf text into nested ``{directive: args-or-block}``."""
    stack: List[Block] = [{}]
    words: List[str] = []
    for kind, tok in _tokenize(text):
        if kind == "word":
            words.append(tok)
        elif kind == "semi":
            if not words:
                raise ConfError("empty directive (stray ';')")
            stack[-1][words[0]] = words[1:]
            words = []
        elif kind == "brace_open":
            if not words:
                raise ConfError("block without a name")
            block: Block = {}
            stack[-1][words[0]] = block
            stack.append(block)
            words = []
        else:  # brace_close
            if words:
                raise ConfError(f"directive {words[0]!r} missing ';'")
            if len(stack) == 1:
                raise ConfError("unbalanced '}'")
            stack.pop()
    if len(stack) != 1:
        raise ConfError("unbalanced '{'")
    if words:
        raise ConfError(f"directive {words[0]!r} missing ';'")
    return stack[0]


def _one(args: List[str], directive: str) -> str:
    if len(args) != 1:
        raise ConfError(f"{directive} expects exactly one argument")
    return args[0]


def server_config_from_text(text: str) -> ServerConfig:
    """Build a :class:`ServerConfig` from appendix-A.7-style conf text."""
    tree = parse_conf(text)
    cfg = ServerConfig()
    engine = SslEngineConfig(use_engine="")

    for directive, value in tree.items():
        if directive == "worker_processes":
            cfg.worker_processes = int(_one(value, directive))
        elif directive == "load_module":
            continue  # informational (the ssl_engine module .so)
        elif directive == "ssl_engine":
            if not isinstance(value, dict):
                raise ConfError("ssl_engine must be a block")
            engine = _parse_ssl_engine(value)
        elif directive == "ssl_ciphers":
            cfg.suites = tuple(_one(value, directive).split(":"))
        elif directive == "ssl_ecdh_curve":
            cfg.curves = tuple(_one(value, directive).split(":"))
        elif directive == "ssl_protocols":
            proto = _one(value, directive)
            if proto not in ("TLSv1.2", "TLSv1.3"):
                raise ConfError(f"unsupported protocol {proto!r}")
            cfg.tls_version = "1.3" if proto == "TLSv1.3" else "1.2"
        elif directive == "ssl_session_cache":
            cfg.session_cache_enabled = _one(value, directive) != "off"
        elif directive == "ssl_asynch_notify":
            cfg.async_notify_mode = _one(value, directive)
        elif directive == "worker_respawn":
            cfg.worker_respawn = (
                _one(value, directive) not in ("off", "0", "false"))
        elif directive == "max_respawns":
            cfg.max_respawns = int(_one(value, directive))
        elif directive == "worker_drain_timeout":
            cfg.worker_drain_timeout = float(_one(value, directive))
        else:
            raise ConfError(f"unknown directive {directive!r}")

    cfg.ssl_engine = engine
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfError(str(exc)) from None
    return cfg


def _parse_ssl_engine(block: Block) -> SslEngineConfig:
    engine = SslEngineConfig(use_engine="")
    for directive, value in block.items():
        if directive == "use":
            engine.use_engine = _one(value, directive)
        elif directive == "offload_backend":
            engine.offload_backend = _one(value, directive)
        elif directive == "default_algorithm":
            engine.default_algorithm = tuple(
                a for a in _one(value, directive).split(",") if a)
        elif directive == "qat_engine":
            if not isinstance(value, dict):
                raise ConfError("qat_engine must be a block")
            _parse_qat_engine(value, engine)
        elif directive == "offload_admission_limit":
            limit = int(_one(value, directive))
            if limit < 1:
                raise ConfError(
                    f"offload_admission_limit must be >= 1, got {limit} "
                    "(omit the directive to disable admission control)")
            engine.offload_admission_limit = limit
        elif directive == "offload_sched_policy":
            engine.offload_sched_policy = _one(value, directive)
        elif directive == "offload_sched_weights":
            engine.offload_sched_weights = _parse_sched_weights(
                _one(value, directive))
        else:
            raise ConfError(f"unknown ssl_engine directive {directive!r}")
    return engine


def _parse_sched_weights(spec: str) -> Dict[str, int]:
    """``class=weight[,class=weight...]`` — e.g.
    ``handshake-asym=8,prf=2,record-cipher=1``. Class names and ranges
    are checked by :meth:`SslEngineConfig.validate`."""
    weights: Dict[str, int] = {}
    for part in spec.split(","):
        if not part:
            continue
        name, sep, raw = part.partition("=")
        if not sep or not raw:
            raise ConfError(
                f"malformed weight {part!r}; expected class=weight")
        try:
            weights[name] = int(raw)
        except ValueError:
            raise ConfError(
                f"weight for {name!r} must be an integer, "
                f"got {raw!r}") from None
    if not weights:
        raise ConfError("offload_sched_weights needs at least one "
                        "class=weight pair")
    return weights


def _parse_qat_engine(block: Block, engine: SslEngineConfig) -> None:
    for directive, value in block.items():
        if directive == "qat_offload_mode":
            engine.qat_offload_mode = _one(value, directive)
        elif directive == "qat_notify_mode":
            engine.qat_notify_mode = _one(value, directive)
        elif directive == "qat_poll_mode":
            mode = _one(value, directive)
            engine.qat_poll_mode = mode
        elif directive == "qat_timer_poll_interval":
            engine.qat_timer_poll_interval = float(_one(value, directive))
        elif directive == "qat_heuristic_poll_asym_threshold":
            engine.qat_heuristic_poll_asym_threshold = int(
                _one(value, directive))
        elif directive == "qat_heuristic_poll_sym_threshold":
            engine.qat_heuristic_poll_sym_threshold = int(
                _one(value, directive))
        elif directive == "qat_failover_timer":
            engine.qat_failover_timer = float(_one(value, directive))
        elif directive == "qat_request_deadline":
            engine.qat_request_deadline = float(_one(value, directive))
        elif directive == "qat_watchdog_interval":
            engine.qat_watchdog_interval = float(_one(value, directive))
        elif directive == "qat_submit_max_retries":
            engine.qat_submit_max_retries = int(_one(value, directive))
        elif directive == "qat_batch_size":
            engine.qat_batch_size = int(_one(value, directive))
        elif directive == "qat_instance_policy":
            engine.qat_instance_policy = _one(value, directive)
        elif directive == "qat_rebalance_interval":
            engine.qat_rebalance_interval = float(_one(value, directive))
        else:
            raise ConfError(f"unknown qat_engine directive {directive!r}")
