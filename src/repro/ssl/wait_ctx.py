"""ASYNC_WAIT_CTX: per-job notification state (paper section 4.4).

Carries either a notification FD (the FD-based scheme: ``set_fd``,
monitored by the application's epoll) or an
application-level callback + argument (the kernel-bypass scheme:
``SSL_set_async_callback`` / ``ASYNC_WAIT_CTX_get_callback`` — the two
new members added to the ASYNC_JOB structure).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from ..net.epoll_sim import NotifyFd

__all__ = ["AsyncWaitCtx"]


class AsyncWaitCtx:
    """Notification channel attached to an async offload job."""

    def __init__(self) -> None:
        self.notify_fd: Optional[NotifyFd] = None
        self._callback: Optional[Callable[[Any], None]] = None
        self._callback_arg: Any = None

    # -- FD-based scheme --------------------------------------------------

    def set_fd(self, fd: NotifyFd) -> None:
        """Associate a notification FD (shared per connection — the
        one-FD-per-connection optimization of section 4.4)."""
        self.notify_fd = fd

    # -- kernel-bypass scheme -----------------------------------------------

    def set_callback(self, callback: Callable[[Any], None],
                     arg: Any) -> None:
        """SSL_set_async_callback: register the application-level
        callback and the async-handler argument."""
        self._callback = callback
        self._callback_arg = arg

    def get_callback(self) -> Tuple[Optional[Callable[[Any], None]], Any]:
        """ASYNC_WAIT_CTX_get_callback."""
        return self._callback, self._callback_arg
