import ast
import sys
import threading
from pathlib import Path

import pytest

from retroselect import workers


@pytest.mark.parametrize("count", [1, 2, 3])
def test_fan_out_deals_round_robin_in_share_order(count, monkeypatch):
    monkeypatch.setattr(workers, "COUNT", count)
    assert workers.fan_out(list, range(7)) == [list(range(w, 7, count)) for w in range(count)]
    assert workers.fan_out(list, []) == []
    assert workers.fan_out(list, [5]) == [[5]]


def test_fan_out_raises_the_first_failed_share_after_all_finished(monkeypatch):
    monkeypatch.setattr(workers, "COUNT", 3)
    done = []

    def task(share):
        if share[0] > 0:
            done.append(share[0])
            raise ValueError(share[0])
        return share

    with pytest.raises(ValueError) as caught:
        workers.fan_out(task, range(3))
    assert caught.value.args == (1,) and sorted(done) == [1, 2]


def test_nested_fan_out_runs_inline(monkeypatch):
    # Every share fans out again while the pool's one thread is busy with an
    # outer share: the inner calls run on their own thread, as one share.
    monkeypatch.setattr(workers, "COUNT", 2)
    monkeypatch.setattr(workers, "_POOL", None)

    def outer(share):
        return [(threading.current_thread().name, workers.fan_out(list, range(4)))
                for _ in share]

    results = []
    callers = [threading.Thread(target=lambda: results.append(workers.fan_out(outer, range(6))))
               for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(results) == 3
    for shares in results:
        assert [len(share) for share in shares] == [3, 3]
        assert all(inner == [[0, 1, 2, 3]] for share in shares for _, inner in share)
    pooled = {name for shares in results for share in shares[1:] for name, _ in share}
    assert all(name.startswith("share") for name in pooled)


def test_one_share_runs_on_the_caller_unmarked(monkeypatch):
    # One item makes one share: a plain call on the caller, so a fan-out
    # nested in it still deals its items over the pool.
    monkeypatch.setattr(workers, "COUNT", 2)
    monkeypatch.setattr(workers, "_POOL", None)

    def outer(share):
        inner = workers.fan_out(lambda part: threading.current_thread().name, range(4))
        return threading.current_thread(), getattr(workers._SHARE, "inside", False), inner

    [(thread, inside, inner)] = workers.fan_out(outer, [0])
    assert thread is threading.current_thread() and not inside
    assert inner[0] == thread.name and inner[1].startswith("share")


def test_only_workers_starts_threads():
    # ``workers.fan_out`` is the one way the library runs work in parallel:
    # no other module names a thread or process pool or a thread class.
    src = Path(workers.__file__).parent
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    found = []
    for path in sorted(src.rglob("*.py")):
        if path == Path(workers.__file__):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, field.get(type(node), ""), None)
            if name in ("ThreadPoolExecutor", "ProcessPoolExecutor", "Thread"):
                found.append(f"{path.relative_to(src)}:{node.lineno} {name}")
    assert found == []
