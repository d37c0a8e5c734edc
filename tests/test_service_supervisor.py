"""Tests for :class:`repro.supervisor.ServiceSupervisor` — the long-lived
restartable-service layer under ``repro.serve``."""

import os
import signal
import time

import pytest

from repro.supervisor import ServiceSupervisor


def _echo(value):
    return value


def _sleep_forever():
    while True:
        time.sleep(60)


def _fail(message):
    raise RuntimeError(message)


def _sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def _wait_for(supervisor, key, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if supervisor.poll(timeout=0.2) or supervisor.result(key) is not None:
            result = supervisor.result(key)
            if result is not None:
                return result
    raise AssertionError(f"service {key!r} did not finish within {timeout}s")


class TestServiceLifecycle:
    def test_ok_result_ships_back(self):
        with ServiceSupervisor() as sup:
            sup.start("echo", _echo, ({"answer": 42},))
            result = _wait_for(sup, "echo")
        assert result.kind == "ok"
        assert result.value == {"answer": 42}

    def test_result_larger_than_the_pipe_buffer_is_ok(self):
        with ServiceSupervisor() as sup:
            start = time.monotonic()
            sup.start("big", _echo, (b"x" * (1 << 20),))
            result = _wait_for(sup, "big", timeout=5.0)
        assert result.kind == "ok"
        assert result.value == b"x" * (1 << 20)
        assert time.monotonic() - start < 5.0

    def test_error_result(self):
        with ServiceSupervisor() as sup:
            sup.start("bad", _fail, ("boom",))
            result = _wait_for(sup, "bad")
        assert result.kind == "error"
        assert "boom" in result.message

    def test_alive_and_pid(self):
        with ServiceSupervisor() as sup:
            sup.start("svc", _sleep_forever)
            assert sup.alive("svc")
            assert isinstance(sup.pid("svc"), int)
        assert not sup.alive("svc")  # shutdown killed it

    def test_duplicate_running_key_rejected(self):
        with ServiceSupervisor() as sup:
            sup.start("svc", _sleep_forever)
            with pytest.raises(ValueError, match="already running"):
                sup.start("svc", _sleep_forever)

    def test_unknown_key_raises(self):
        with ServiceSupervisor() as sup:
            with pytest.raises(KeyError):
                sup.result("ghost")


class TestRestart:
    def test_sigkill_reports_crashed_then_restart_works(self):
        with ServiceSupervisor() as sup:
            sup.start("svc", _sleep_forever)
            os.kill(sup.pid("svc"), signal.SIGKILL)
            result = _wait_for(sup, "svc")
            assert result.kind == "crashed"
            assert result.exitcode == -signal.SIGKILL
            # Crash-restore: respawn with fresh args, count the incarnation.
            assert sup.restarts("svc") == 0
            assert sup.restart("svc", args=(0.0, "recovered")) == 1
            # _Service.fn is unchanged; swap to a terminating payload via a
            # second restart to prove stored-recipe restarts also work.
            sup._services["svc"].fn = _sleep_then_return
            assert sup.restart("svc") == 2
            result = _wait_for(sup, "svc")
        assert result.kind == "ok"
        assert result.value == "recovered"
        assert sup.restarts("svc") == 2

    def test_restart_kills_live_incarnation(self):
        with ServiceSupervisor() as sup:
            sup.start("svc", _sleep_forever)
            first_pid = sup.pid("svc")
            sup.restart("svc")
            assert sup.alive("svc")
            assert sup.pid("svc") != first_pid

    def test_finished_service_refuses_restart(self):
        with ServiceSupervisor() as sup:
            sup.start("done", _echo, (1,))
            assert _wait_for(sup, "done").kind == "ok"
            with pytest.raises(ValueError, match="already finished"):
                sup.restart("done")


class TestCancel:
    def test_shutdown_cancels_everything_running(self):
        sup = ServiceSupervisor()
        sup.start("a", _sleep_forever)
        sup.start("b", _echo, (7,))
        assert _wait_for(sup, "b").kind == "ok"
        sup.shutdown()
        assert sup.result("a").kind == "cancelled"
        assert not sup.alive("a")
        assert sup.result("b").kind == "ok"  # finished results survive

    def test_cancelled_service_refuses_restart(self):
        # Restore logic must not resurrect something the caller shut down.
        sup = ServiceSupervisor()
        sup.start("svc", _sleep_forever)
        sup.shutdown()
        assert sup.result("svc").kind == "cancelled"
        with pytest.raises(ValueError, match="cancelled"):
            sup.restart("svc")
