import contextlib
import functools
import glob
import multiprocessing
import os

import pytest

from sawtopics import parallel
from sawtopics.cli import main
from sawtopics.parallel import forked_imap


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def square_in(done):
    def task(i):
        (done / str(i)).touch()
        return i * i
    return task


def test_lazy_arguments_drawn_a_bounded_distance_ahead(monkeypatch, tmp_path):
    # when argument i is drawn, every result before i - 2 x workers is collected
    cpus(monkeypatch, 2)
    done_at_draw = []

    def arguments():
        for i in range(40):
            done_at_draw.append(len(list(tmp_path.iterdir())))
            yield (i,)

    assert list(forked_imap(square_in(tmp_path), arguments())) == [i * i for i in range(40)]
    assert all(done >= i - 4 for i, done in enumerate(done_at_draw))
    assert multiprocessing.active_children() == []


def test_results_keep_their_order(monkeypatch):
    cpus(monkeypatch, 3)
    results = list(forked_imap(lambda a, b: (os.getpid(), a - b), ((i, 1) for i in range(25))))
    assert [r for _, r in results] == list(range(-1, 24))
    assert os.getpid() not in {pid for pid, _ in results}


@pytest.mark.parametrize("arguments", [[(1,)], iter([(1,)])], ids=["list", "iterator"])
def test_one_call_runs_in_this_process(monkeypatch, arguments):
    cpus(monkeypatch, 4)
    assert list(forked_imap(lambda x: (os.getpid(), x), arguments)) == [(os.getpid(), 1)]
    assert list(forked_imap(lambda x: x, iter([]))) == []


def test_raising_task_propagates_and_no_worker_outlives_it(monkeypatch):
    cpus(monkeypatch, 2)

    def task(i):
        if i == 5:
            raise ValueError(f"task {i} refused")
        return i

    with pytest.raises(ValueError, match="task 5 refused"):
        list(forked_imap(task, ((i,) for i in range(30))))
    assert multiprocessing.active_children() == []


def test_cv_outputs_are_the_same_bytes_on_any_cpu_count(monkeypatch, tmp_path):
    corpus = tmp_path / "c.json"
    assert main(["synth", "--d", "15", "--k", "2", "--n", "90", "--doc-length", "40",
                 "--beta", "3,-3", "--seed", "6", "--out", str(corpus)]) == 0
    outputs = []
    for n in (1, 3):
        cpus(monkeypatch, n)
        out = tmp_path / f"cv-{n}"
        assert main(["cv", "--corpus", str(corpus), "--ks", "2", "--lams", "0.1,1.0",
                     "--alphas", "0.5", "--folds", "3", "--seed", "6",
                     "--out-dir", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("cv_result.csv", "model.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("stop", ["break", "raise"])
def test_a_consumer_that_stops_early_leaves_no_worker(monkeypatch, stop):
    # after the first result the consumer leaves its loop: the calls not yet
    # started are cancelled, and at most 2 x workers more arguments were drawn
    cpus(monkeypatch, 2)
    drawn = []

    def arguments():
        for i in range(40):
            drawn.append(i)
            yield (i,)

    taken = []
    with pytest.raises(RuntimeError) if stop == "raise" else contextlib.nullcontext():
        for result in forked_imap(lambda i: i * i, arguments()):
            taken.append(result)
            if stop == "raise":
                raise RuntimeError("consumer failed")
            break
    assert taken == [0]
    assert multiprocessing.active_children() == []
    assert len(drawn) <= len(taken) + 2 * 2


def test_results_arrive_before_every_call_is_done(monkeypatch, tmp_path):
    # the first result is yielded while later calls are still to start
    cpus(monkeypatch, 2)
    results = forked_imap(square_in(tmp_path), ((i,) for i in range(40)))
    assert next(results) == 0
    assert len(list(tmp_path.iterdir())) < 40
    results.close()
    assert multiprocessing.active_children() == []


def blas_threads():
    return parallel._openblas().scipy_openblas_get_num_threads64_()


@pytest.mark.skipif(parallel._openblas() is None,
                    reason="numpy bundles no OpenBLAS that sets its thread count")
def test_each_worker_runs_one_blas_thread_and_the_caller_keeps_its_count(monkeypatch):
    # the caller runs two threads, so one thread in a worker is the pool's doing
    cpus(monkeypatch, 2)
    lib = parallel._openblas()
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        counts = list(forked_imap(lambda i: (os.getpid(), blas_threads()),
                                  ((i,) for i in range(8))))
        assert {n for _, n in counts} == {1}
        assert os.getpid() not in {pid for pid, _ in counts}
        assert multiprocessing.active_children() == []
        assert blas_threads() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def test_without_a_thread_setter_workers_keep_their_count_logged_once(monkeypatch, caplog):
    # another BLAS build: no library beside numpy sets its thread count, which
    # the caller looks up once, before it forks, and the workers leave alone
    cpus(monkeypatch, 2)
    lib = parallel._openblas()
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    monkeypatch.setattr(parallel, "_openblas", functools.cache(parallel._openblas.__wrapped__))
    count = lib.scipy_openblas_get_num_threads64_ if lib is not None else lambda: None
    with caplog.at_level("DEBUG", logger="sawtopics.parallel"):
        counts = list(forked_imap(lambda i: count(), ((i,) for i in range(6))))
    assert counts == [count()] * 6
    assert parallel._openblas() is None
    assert [r.levelname for r in caplog.records] == ["DEBUG"]
    assert "keep their BLAS thread count" in caplog.records[0].getMessage()
