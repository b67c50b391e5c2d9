"""Direct unit tests for the fiber and stack async job mechanisms."""

import pytest

from repro.sim.rng import Stream
from repro.ssl.async_job import FiberAsyncJob, JobState, StackAsyncJob
from repro.tls.actions import CryptoCall, NeedMessage, SendMessage
from repro.crypto.ops import CryptoOp, CryptoOpKind


def crypto_action(tag):
    return CryptoCall(CryptoOp(CryptoOpKind.PRF, nbytes=4),
                      compute=lambda: tag, label=tag)


def simple_flow():
    """crypto -> send -> need -> crypto -> done."""
    a = yield crypto_action("op1")
    yield SendMessage(message=f"msg({a})")
    m = yield NeedMessage()
    b = yield crypto_action("op2")
    return (a, m, b)


# -- fiber -----------------------------------------------------------------

def test_fiber_advance_through_flow():
    job = FiberAsyncJob(simple_flow, kind="handshake")
    tag, action = job.advance()
    assert isinstance(action, CryptoCall)
    tag, action = job.advance("r1")
    assert isinstance(action, SendMessage)
    tag, action = job.advance(None)
    assert isinstance(action, NeedMessage)
    tag, action = job.advance("hello")
    assert isinstance(action, CryptoCall)
    tag, result = job.advance("r2")
    assert tag == "done"
    assert result == ("r1", "hello", "r2")
    assert job.state is JobState.FINISHED


def test_fiber_exception_injection():
    def flow():
        try:
            yield crypto_action("x")
        except ValueError as e:
            return f"handled {e}"

    job = FiberAsyncJob(flow)
    job.advance()
    tag, result = job.advance(exc=ValueError("bad"))
    assert (tag, result) == ("done", "handled bad")


def test_pause_resume_protocol():
    job = FiberAsyncJob(simple_flow)
    _, action = job.advance()
    job.mark_paused(action)
    assert job.state is JobState.PAUSED
    assert not job.response_ready
    job.deliver("value", None)
    assert job.response_ready
    value, exc = job.take_resume()
    assert (value, exc) == ("value", None)
    assert job.state is JobState.RUNNING


def test_deliver_requires_paused():
    job = FiberAsyncJob(simple_flow)
    with pytest.raises(RuntimeError):
        job.deliver("v", None)


def test_take_resume_requires_delivery():
    job = FiberAsyncJob(simple_flow)
    job.advance()
    job.mark_paused(None)
    with pytest.raises(RuntimeError):
        job.take_resume()


# -- stack -----------------------------------------------------------------

def test_stack_replay_reaches_pause_point():
    job = StackAsyncJob(simple_flow)
    _, action = job.advance()            # at op1
    job.record_crypto("r1")
    _, action = job.advance("r1")        # at send
    job.record_send()
    _, action = job.advance(None)        # at need
    job.record_message("hello")
    _, action = job.advance("hello")     # at op2 -> pause here
    assert isinstance(action, CryptoCall) and action.label == "op2"
    job.mark_paused(action)
    job.deliver("r2", None)
    job.take_resume()

    replayed = job.prepare_resume()      # restart + careful skip
    assert replayed == 3
    assert isinstance(job.parked_action, CryptoCall)
    assert job.parked_action.label == "op2"
    job.parked_action = None
    job.record_crypto("r2")
    tag, result = job.advance("r2")
    assert (tag, result) == ("done", ("r1", "hello", "r2"))


def test_stack_replay_restores_rng_determinism():
    """Replayed sections must re-draw identical randoms, and live
    continuation must not be perturbed."""
    rng = Stream(42)

    draws = []

    def flow():
        a = float(rng.random())
        draws.append(a)
        yield crypto_action("op1")
        b = float(rng.random())
        draws.append(b)
        yield crypto_action("op2")
        return (a, b)

    job = StackAsyncJob(flow, rng=rng)
    job.advance()
    job.record_crypto("r1")
    _, action = job.advance("r1")   # paused at op2; two draws done
    job.mark_paused(action)
    # Another connection draws from the same stream meanwhile.
    float(rng.random())
    job.deliver("r2", None)
    job.take_resume()
    job.prepare_resume()
    job.parked_action = None
    job.record_crypto("r2")
    tag, result = job.advance("r2")
    assert tag == "done"
    # The replayed first draw equals the original first draw.
    assert draws[2] == draws[0]
    assert result[0] == draws[0]


def test_stack_replay_rethrows_a_caught_crypto_error():
    """A flow that catches a crypto failure and goes on must replay
    past that step, not park on it again."""
    def flow():
        try:
            a = yield crypto_action("op1")
        except ValueError:
            a = "fallback"
        b = yield crypto_action("op2")
        return (a, b)

    job = StackAsyncJob(flow)
    _, action = job.advance()
    job.mark_paused(action)
    job.deliver(None, ValueError("bad"))
    _, exc = job.take_resume()
    job.prepare_resume()
    job.parked_action = None
    job.record_crypto_error(exc)
    _, action = job.advance(exc=exc)     # at op2 -> pause here
    job.mark_paused(action)
    job.deliver("r2", None)
    job.take_resume()
    assert job.prepare_resume() == 1
    assert job.parked_action.label == "op2"
    job.parked_action = None
    job.record_crypto("r2")
    assert job.advance("r2") == ("done", ("fallback", "r2"))


def test_stack_replay_divergence_detected():
    calls = [0]

    def unstable_flow():
        calls[0] += 1
        if calls[0] == 1:
            yield crypto_action("op1")
        else:
            yield SendMessage(message="different!")  # diverges
        yield crypto_action("op2")

    job = StackAsyncJob(unstable_flow)
    job.advance()
    job.record_crypto("r1")
    _, action = job.advance("r1")
    job.mark_paused(action)
    with pytest.raises(RuntimeError, match="replay diverged"):
        job.prepare_resume()


def test_swap_counting():
    fiber = FiberAsyncJob(simple_flow)
    assert fiber.swaps == 0
    fiber.prepare_resume()
    assert fiber.swaps == 1
    stack = StackAsyncJob(simple_flow)
    stack.advance()
    stack.record_crypto("x")
    _, a = stack.advance("x")
    stack.mark_paused(a)
    replayed = stack.prepare_resume()
    assert stack.swaps == 1
    assert replayed == 1
