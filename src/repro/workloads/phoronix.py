"""Phoronix multicore suite workloads (paper §5.5, Figure 13 and Table 4).

Every Phoronix test the paper highlights falls into one of a few behaviour
classes; each class is a parameterised generator here:

* ``shortburst`` — a dispatcher forks waves of very short jobs
  (graphics-magick operations): CFS-schedutil scatters them onto cold
  cores at low frequency; Nest reuses its warm nest.
* ``pulse`` — a persistent pool whose threads run sub-millisecond bursts
  separated by ~1 ms waits (zstd's worker pool): per-core activity is too
  gappy for the hardware to keep frequencies up, so CFS-schedutil runs
  slow, CFS-performance fixes the floor, and Nest's spinning keeps the
  nest cores boosted (on Speed Shift parts); on the Broadwell E7 the
  activity is too thin for Nest-schedutil to help (§5.5).
* ``steady`` — N long-running compute threads (cpuminer, oidn with N =
  #cpus; libavif with N ≈ socket size): saturating variants see parity;
  the libavif shape (N slightly above one socket's physical cores) is the
  §5.5 case where Nest's packing *hurts* — it pins all tasks to one socket
  at a low turbo ceiling plus SMT contention while CFS spills over.
* ``barriered`` — OpenMP kernels (rodinia leukocyte with 36 threads,
  askap): on Skylake CFS leaves tasks sharing hyperthreads on one socket
  while Nest's wakeup work conservation spreads them; on the E7 the spread
  lowers activity density and Nest loses — the paper's "opposite
  behaviour" case.
* ``churny`` — server-style token pools (cassandra): like DaCapo's h2.
* ``frame`` — frame-paced decode pools (libgav1, ffmpeg): moderate worker
  counts with per-frame sync and idle slack.

Table 4 is regenerated from a seeded population of tests drawn from these
classes with randomised parameters (`suite_population`; `suite_member`
builds one element of it).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..kernel.scheduler_core import Kernel
from ..kernel.syscalls import (Barrier, BarrierWait, Channel, Compute, Fork,
                               Recv, Send, Sleep, WaitChildren)
from ..kernel.task import Task
from .base import Workload, jittered, ms_of_work


@dataclass(frozen=True)
class PhoronixProfile:
    """Shape of one Phoronix test."""

    name: str
    kind: str     # shortburst | pulse | steady | barriered | churny | frame
    n_threads: int = 0          # 0 = one per hw thread, -2 = one per 2 threads
    job_ms: float = 0.5         # shortburst: job length; steady: burst length
    waves: int = 60             # shortburst: number of dispatch waves
    wave_width: int = 6         # shortburst: jobs per wave
    work_ms: float = 120.0      # steady/churny/frame: per-thread compute
    rounds: int = 40            # barriered/frame: sync rounds
    chunk_ms: float = 1.5       # barriered/frame: per-round compute
    imbalance: float = 0.10     # barriered: chunk jitter
    tokens: int = 0             # churny: effective concurrency
    block_us: int = 1500        # churny/frame: pause length
    frame_gap_us: int = 800     # frame: inter-frame idle slack
    pulse_gap_us: int = 800     # pulse: wait between bursts


#: The Figure 13 tests (names follow the paper's numbering; Table 5 maps
#: them to the upstream Phoronix test profiles).
FIG13_PROFILES: Dict[str, PhoronixProfile] = {
    "arrayfire-2":        PhoronixProfile("arrayfire-2", "barriered", n_threads=-2, rounds=30, chunk_ms=2.0),
    "arrayfire-3":        PhoronixProfile("arrayfire-3", "barriered", n_threads=-2, rounds=60, chunk_ms=0.8),
    "askap-5":            PhoronixProfile("askap-5", "barriered", n_threads=-2, rounds=50, chunk_ms=1.5, imbalance=0.15),
    "cassandra-1":        PhoronixProfile("cassandra-1", "churny", n_threads=12, tokens=10, work_ms=120, block_us=2000),
    "cpuminer-opt-6":     PhoronixProfile("cpuminer-opt-6", "steady", n_threads=0, work_ms=100),
    "cpuminer-opt-7":     PhoronixProfile("cpuminer-opt-7", "steady", n_threads=0, work_ms=90),
    "cpuminer-opt-8":     PhoronixProfile("cpuminer-opt-8", "steady", n_threads=0, work_ms=110),
    "cpuminer-opt-9":     PhoronixProfile("cpuminer-opt-9", "steady", n_threads=0, work_ms=95),
    "cpuminer-opt-11":    PhoronixProfile("cpuminer-opt-11", "steady", n_threads=0, work_ms=105),
    "ffmpeg-1":           PhoronixProfile("ffmpeg-1", "frame", n_threads=8, rounds=60, chunk_ms=1.2, frame_gap_us=500),
    "graphics-magick-4":  PhoronixProfile("graphics-magick-4", "shortburst", waves=50, wave_width=4, job_ms=1.5),
    "libavif-avifenc-1":  PhoronixProfile("libavif-avifenc-1", "steady", n_threads=20, work_ms=90),
    "libgav1-1":          PhoronixProfile("libgav1-1", "frame", n_threads=8, rounds=70, chunk_ms=1.2, frame_gap_us=900),
    "libgav1-2":          PhoronixProfile("libgav1-2", "frame", n_threads=8, rounds=60, chunk_ms=1.0, frame_gap_us=900),
    "libgav1-3":          PhoronixProfile("libgav1-3", "frame", n_threads=8, rounds=70, chunk_ms=1.2, frame_gap_us=1000),
    "libgav1-4":          PhoronixProfile("libgav1-4", "frame", n_threads=8, rounds=80, chunk_ms=1.1, frame_gap_us=1100),
    "oidn-1":             PhoronixProfile("oidn-1", "steady", n_threads=0, work_ms=80),
    "oidn-2":             PhoronixProfile("oidn-2", "steady", n_threads=0, work_ms=80),
    "oidn-3":             PhoronixProfile("oidn-3", "steady", n_threads=0, work_ms=70),
    "onednn-4":           PhoronixProfile("onednn-4", "barriered", n_threads=16, rounds=60, chunk_ms=0.8, imbalance=0.15),
    "onednn-5":           PhoronixProfile("onednn-5", "barriered", n_threads=16, rounds=50, chunk_ms=0.7, imbalance=0.15),
    "onednn-7":           PhoronixProfile("onednn-7", "barriered", n_threads=-2, rounds=50, chunk_ms=1.5),
    "onednn-11":          PhoronixProfile("onednn-11", "barriered", n_threads=-2, rounds=50, chunk_ms=1.4),
    "onednn-14":          PhoronixProfile("onednn-14", "barriered", n_threads=-2, rounds=50, chunk_ms=1.5),
    "rodinia-5":          PhoronixProfile("rodinia-5", "barriered", n_threads=36, rounds=45, chunk_ms=1.5, imbalance=0.12),
    "zstd-compression-7": PhoronixProfile("zstd-compression-7", "pulse", n_threads=10, job_ms=0.4, work_ms=40, pulse_gap_us=2500),
    "zstd-compression-10": PhoronixProfile("zstd-compression-10", "pulse", n_threads=10, job_ms=0.5, work_ms=50, pulse_gap_us=2500),
}


def fig13_names() -> List[str]:
    return list(FIG13_PROFILES)


class PhoronixWorkload(Workload):
    """One Phoronix test, built from its behaviour-class profile."""

    def __init__(self, test: str = "zstd-compression-7",
                 profile: Optional[PhoronixProfile] = None,
                 scale: float = 1.0) -> None:
        if profile is None:
            if test not in FIG13_PROFILES:
                raise KeyError(f"unknown test {test!r}; "
                               f"known: {sorted(FIG13_PROFILES)}")
            profile = FIG13_PROFILES[test]
        self.profile = profile
        self.scale = scale
        self.name = f"phoronix-{profile.name}"
        self._shared_home: Optional[int] = None

    def n_threads_on(self, kernel: Kernel) -> int:
        n = self.profile.n_threads
        if n == 0:
            return kernel.topology.n_cpus
        if n < 0:
            return max(1, kernel.topology.n_cpus // (-n))
        return n

    def start(self, kernel: Kernel) -> Task:
        rng = self.rng(kernel)
        return kernel.spawn(self._main, name=self.name,
                            args=(rng, self.n_threads_on(kernel)))

    # ------------------------------------------------------------------

    def _main(self, api, rng: random.Random, n_threads: int):
        kind = self.profile.kind
        if kind == "shortburst":
            yield from self._run_shortburst(rng)
        elif kind == "pulse":
            yield from self._run_pool(rng, n_threads, self._pulse_thread)
        elif kind == "steady":
            yield from self._run_pool(rng, n_threads, self._steady_thread)
        elif kind == "barriered":
            yield from self._run_barriered(rng, n_threads)
        elif kind == "churny":
            yield from self._run_churny(rng, n_threads)
        elif kind == "frame":
            yield from self._run_frame(rng, n_threads)
        else:  # pragma: no cover - profile validation
            raise ValueError(f"unknown kind {kind!r}")

    # ---- shortburst (zstd, graphics-magick) ----------------------------

    def _run_shortburst(self, rng: random.Random):
        p = self.profile
        waves = max(1, round(p.waves * self.scale))
        for _ in range(waves):
            yield Compute(ms_of_work(0.05))
            for _ in range(p.wave_width):
                yield Compute(ms_of_work(0.02))
                yield Fork(self._short_job, name=f"{p.name}-job",
                           args=(rng.randrange(1 << 30),))
            yield WaitChildren()

    def _short_job(self, api, seed: int):
        rng = random.Random(seed)
        yield Compute(ms_of_work(jittered(rng, self.profile.job_ms, 0.4, 0.05)))

    # ---- pulse (zstd worker pools) --------------------------------------

    def _pulse_thread(self, api, seed: int):
        p = self.profile
        rng = random.Random(seed)
        remaining = p.work_ms * self.scale
        while remaining > 0:
            burst = min(remaining, jittered(rng, p.job_ms, 0.4, 0.05))
            yield Compute(ms_of_work(burst))
            remaining -= burst
            if remaining > 0:
                yield Sleep(max(1, int(rng.gauss(p.pulse_gap_us,
                                                 p.pulse_gap_us * 0.3))))

    # ---- steady (cpuminer, oidn, libavif) ------------------------------

    def _run_pool(self, api_rng, n_threads, thread_fn):
        p = self.profile
        for i in range(n_threads):
            yield Compute(ms_of_work(0.02))
            yield Fork(thread_fn, name=f"{p.name}-t{i}",
                       args=(api_rng.randrange(1 << 30),))
        yield WaitChildren()

    def _steady_thread(self, api, seed: int):
        p = self.profile
        rng = random.Random(seed)
        remaining = p.work_ms * self.scale
        while remaining > 0:
            burst = min(remaining, jittered(rng, 4.0, 0.3, 0.5))
            yield Compute(ms_of_work(burst))
            remaining -= burst
            if remaining > 0 and rng.random() < 0.1:
                yield Sleep(rng.randrange(100, 600))

    # ---- barriered (rodinia, askap, onednn, arrayfire) -------------------

    def _run_barriered(self, rng: random.Random, n_threads: int):
        p = self.profile
        barrier = Barrier(n_threads)
        for i in range(1, n_threads):
            yield Compute(ms_of_work(0.02))
            yield Fork(self._barrier_thread, name=f"{p.name}-t{i}",
                       args=(rng.randrange(1 << 30), barrier))
        yield from self._barrier_rounds(random.Random(rng.randrange(1 << 30)),
                                        barrier)
        yield WaitChildren()

    def _barrier_thread(self, api, seed: int, barrier: Barrier):
        yield from self._barrier_rounds(random.Random(seed), barrier)

    def _barrier_rounds(self, rng: random.Random, barrier: Barrier):
        p = self.profile
        rounds = max(1, round(p.rounds * self.scale))
        for _ in range(rounds):
            chunk = max(0.05, rng.gauss(p.chunk_ms, p.chunk_ms * p.imbalance))
            yield Compute(ms_of_work(chunk))
            yield BarrierWait(barrier)

    # ---- churny (cassandra) ---------------------------------------------

    def _run_churny(self, rng: random.Random, n_threads: int):
        p = self.profile
        queue = Channel(f"{p.name}-queue")
        for i in range(n_threads):
            yield Compute(ms_of_work(0.03))
            yield Fork(self._churny_thread, name=f"{p.name}-t{i}",
                       args=(rng.randrange(1 << 30), queue))
        for _ in range(min(p.tokens or n_threads, n_threads)):
            yield Compute(ms_of_work(0.02))
            yield Send(queue, object())
        yield WaitChildren()

    def _churny_thread(self, api, seed: int, queue: Channel):
        p = self.profile
        rng = random.Random(seed)
        remaining = p.work_ms * self.scale
        bursts = 0
        while remaining > 0:
            token = yield Recv(queue)
            burst = min(remaining, jittered(rng, 1.5, 0.4, 0.05))
            yield Compute(ms_of_work(burst))
            remaining -= burst
            yield Send(queue, token)
            bursts += 1
            if remaining > 0 and bursts % 4 == 0:
                yield Sleep(max(1, int(rng.expovariate(1.0 / p.block_us))))

    # ---- frame-paced (libgav1, ffmpeg) ----------------------------------

    def _run_frame(self, rng: random.Random, n_threads: int):
        p = self.profile
        barrier = Barrier(n_threads)
        for i in range(1, n_threads):
            yield Compute(ms_of_work(0.02))
            yield Fork(self._frame_thread, name=f"{p.name}-t{i}",
                       args=(rng.randrange(1 << 30), barrier))
        yield from self._frames(random.Random(rng.randrange(1 << 30)), barrier)
        yield WaitChildren()

    def _frame_thread(self, api, seed: int, barrier: Barrier):
        yield from self._frames(random.Random(seed), barrier)

    def _frames(self, rng: random.Random, barrier: Barrier):
        p = self.profile
        rounds = max(1, round(p.rounds * self.scale))
        for _ in range(rounds):
            chunk = max(0.05, rng.gauss(p.chunk_ms, p.chunk_ms * 0.3))
            yield Compute(ms_of_work(chunk))
            yield BarrierWait(barrier)
            # Inter-frame slack: the decoder waits for the bitstream/display.
            yield Sleep(max(1, int(rng.gauss(p.frame_gap_us,
                                             p.frame_gap_us * 0.3))))


# ---------------------------------------------------------------------------
# Table 4: the broader multicore-suite population.
# ---------------------------------------------------------------------------

#: Class mix of the wider suite: most tests saturate the machine and are
#: unaffected by placement, matching Table 4's large "same" column.
_POPULATION_MIX = (
    ("steady_saturating", 0.45),
    ("barriered_saturating", 0.20),
    ("shortburst", 0.12),
    ("frame", 0.10),
    ("churny", 0.08),
    ("steady_partial", 0.05),
)


def _population_profiles(seed: int) -> Iterator[PhoronixProfile]:
    """The seeded population's profiles, in order and without end: each
    element depends only on the seed and the elements before it."""
    rng = random.Random(seed)
    for i in itertools.count():
        r = rng.random()
        acc = 0.0
        for kind, w in _POPULATION_MIX:
            acc += w
            if r <= acc:
                break
        name = f"suite-{i:03d}-{kind}"
        if kind == "steady_saturating":
            prof = PhoronixProfile(name, "steady", n_threads=0,
                                   work_ms=rng.uniform(40, 90))
        elif kind == "barriered_saturating":
            prof = PhoronixProfile(name, "barriered", n_threads=-2,
                                   rounds=rng.randrange(20, 50),
                                   chunk_ms=rng.uniform(0.8, 2.5),
                                   imbalance=rng.uniform(0.05, 0.2))
        elif kind == "shortburst":
            prof = PhoronixProfile(name, "shortburst",
                                   waves=rng.randrange(30, 70),
                                   wave_width=rng.randrange(2, 9),
                                   job_ms=rng.uniform(0.3, 2.0))
        elif kind == "frame":
            prof = PhoronixProfile(name, "frame",
                                   n_threads=rng.randrange(6, 14),
                                   rounds=rng.randrange(40, 80),
                                   chunk_ms=rng.uniform(0.6, 1.5),
                                   frame_gap_us=rng.randrange(400, 1500))
        elif kind == "churny":
            nt = rng.randrange(8, 16)
            prof = PhoronixProfile(name, "churny", n_threads=nt,
                                   tokens=max(2, nt - rng.randrange(2, 5)),
                                   work_ms=rng.uniform(60, 120),
                                   block_us=rng.randrange(1000, 3000))
        else:  # steady_partial
            prof = PhoronixProfile(name, "steady",
                                   n_threads=rng.randrange(12, 24),
                                   work_ms=rng.uniform(50, 100))
        yield prof


def suite_population(n_tests: int = 60, seed: int = 7) -> List[PhoronixWorkload]:
    """A seeded population of synthetic multicore tests (Table 4)."""
    return [PhoronixWorkload(profile=prof)
            for prof in itertools.islice(_population_profiles(seed), n_tests)]


def suite_member(index: int, seed: int = 7,
                 scale: float = 1.0) -> PhoronixWorkload:
    """Element ``index`` of every ``suite_population(n, seed)`` with
    ``n > index``, at ``scale``."""
    prof = next(itertools.islice(_population_profiles(seed), index, None))
    return PhoronixWorkload(profile=prof, scale=scale)
