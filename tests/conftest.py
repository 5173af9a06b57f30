"""Shared pytest wiring: collects acceptance criterion lines for the summary, and
builds the environment of a fresh CLI process."""

import os
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
acceptance_lines: list[str] = []


def record_acceptance_line(line: str) -> None:
    acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def cli_env(**chosen: str) -> dict[str, str]:
    """This process's environment without the BLAS thread-count variables, plus
    `chosen`, with src/ on the path: a child CLI sees only the counts given here."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return dict(env, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), **chosen)
