"""The coalescing front door of the executor's multi-plan block pass.

Queries submitted within a small window become one run, so bursty
dashboard traffic costs one archive walk instead of N.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Tuple

from .executor import BatchReport, ExecutionResult
from .plan import QueryPlan


class AdmissionQueue:
    """Coalesces queries arriving within a small window into one run.

    ``submit`` returns a future immediately; a worker thread waits
    ``window_s`` after the first arrival, drains everything admitted in
    the meantime (up to ``max_batch``) and runs one block pass over
    them.  Callers block only on their own future, so admission order
    does not constrain completion order.
    """

    def __init__(
        self,
        run_plans: Callable[
            [List[QueryPlan]], Tuple[List[ExecutionResult], BatchReport]
        ],
        window_s: float = 0.002,
        max_batch: int = 64,
    ):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self._run_plans = run_plans
        self.window_s = window_s
        self.max_batch = max_batch
        self._pending: List[Tuple[QueryPlan, "Future[ExecutionResult]"]] = []
        self._cond = threading.Condition()
        self._closed = False
        self.batches = 0
        self._worker = threading.Thread(
            target=self._drain_loop, name="loggrep-admission", daemon=True
        )
        self._worker.start()

    def submit(self, plan: QueryPlan) -> "Future[ExecutionResult]":
        future: "Future[ExecutionResult]" = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError("admission queue is closed")
            self._pending.append((plan, future))
            self._cond.notify()
        return future

    def close(self) -> None:
        """Drain what is pending, then stop the worker."""
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._worker.join()

    # ------------------------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
                closed = self._closed
            if not closed and self.window_s > 0:
                time.sleep(self.window_s)  # let the burst coalesce
            with self._cond:
                admitted = self._pending[: self.max_batch]
                del self._pending[: self.max_batch]
            if not admitted:
                continue
            self.batches += 1
            try:
                results, _ = self._run_plans([plan for plan, _ in admitted])
            except Exception as exc:  # noqa: BLE001 - deliver, don't die
                for _, future in admitted:
                    future.set_exception(exc)
            else:
                for (_, future), result in zip(admitted, results):
                    future.set_result(result)
