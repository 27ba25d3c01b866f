"""The four workloads.  Each one sets up its inputs from a seed, runs rounds of
the same operations, and checks every output outside the timed calls.

A round is the unit a run repeats: its operations are fixed, so `attempted`
is always a whole multiple of the round size.  Each operation is either the
workload's primary or its secondary kind; the end-to-end metrics report the
mean time of one operation of each kind per round, and the median over
rounds.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np

from reference import (center, check_eala, check_exact, check_mha,
                       check_report, close, read_ealt)

MIB = float(1 << 20)
F8 = 8


class Round:
    """Times, counts and check failures of one round.

    With `peaks` set the round is not timed: each operation runs under
    tracemalloc and the largest peak of each kind is kept.
    """

    def __init__(self, workload: str, index: int, tracer=None, peaks: bool = False):
        self.workload = workload
        self.index = index
        self.tracer = tracer
        self.peaks = {"primary": 0.0, "secondary": 0.0} if peaks else None
        self.seconds = {"primary": 0.0, "secondary": 0.0}
        self.calls = {"primary": 0, "secondary": 0}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, kind: str, fn, *args, **kwargs):
        """Time one operation; a raising operation is counted as failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.open_op(self.workload, self.index, kind)
        if self.peaks is not None:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # counted and reported; the run goes on
            self.failed += 1
            self.problems.append(f"{kind} operation raised {exc!r}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.close_op()
            if self.peaks is not None:
                peak = tracemalloc.get_traced_memory()[1] / MIB
                tracemalloc.stop()
                self.peaks[kind] = max(self.peaks[kind], peak)
        self.seconds[kind] += elapsed
        self.calls[kind] += 1
        return out

    def mean_ms(self, kind: str) -> float:
        return 1e3 * self.seconds[kind] / self.calls[kind]

    def busy_s(self) -> float:
        return self.seconds["primary"] + self.seconds["secondary"]


def peak_mib(fn, *args, **kwargs) -> float:
    """tracemalloc peak of one call, which counts only what the call allocates."""
    r = Round("", 0, peaks=True)
    r.run("primary", fn, *args, **kwargs)
    return r.peaks["primary"]


def sample_rows(rng, n: int, count: int) -> np.ndarray:
    return rng.choice(n, size=min(n, count), replace=False)


class Workload:
    name = ""
    primary = ""
    secondary = ""

    def setup(self, e, seed: int, workdir: str) -> None:
        """Import-time work is timed by the caller; this makes the inputs."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: the benchmark's own references for the checks."""

    def round(self, r: Round) -> None:
        raise NotImplementedError

    def describe(self) -> dict:
        """The make-up of the inputs, for the stamp."""
        raise NotImplementedError

    def computed(self) -> dict:
        """Computed flops and bytes per round for each timed kernel."""
        return {}

    def reference(self) -> dict:
        """Modeled peak next to the measured one, where the model covers it,
        both including the inputs."""
        return {}


class LongContext(Workload):
    """One head, n = 65536, c = d = 64: the linear path and EALT file I/O."""

    name = "long-context"
    primary = "eala_attention call"
    secondary = "eala attend round trip through EALT files"
    # Raw Gaussian scores have max |q . khat| near 59 at this n; this factor
    # brings it to about 0.11, the calibrated regime, without the O(n^2 c)
    # calibration scan of gen_workload.
    Q_SCALE = 1.0 / 512.0
    CHECK_ROWS = 8

    def __init__(self, quick: bool):
        self.n = 2048 if quick else 65536
        self.c = 64

    def describe(self):
        return {"n": self.n, "c": self.c, "d": self.c, "q_scale": self.Q_SCALE}

    def setup(self, e, seed, workdir):
        self.e, self.seed = e, seed
        q, k, v = e.workload.gen_workload_raw(self.n, self.c, seed)
        self.q, self.k, self.v = q * self.Q_SCALE, k, v
        self.paths = {name: os.path.join(workdir, f"{name}.ealt")
                      for name in ("q", "k", "v", "out")}
        for name, m in (("q", self.q), ("k", self.k), ("v", self.v)):
            e.tensorio.write_tensor(self.paths[name], m, "f64")
        self.argv = ["attend", "--q", self.paths["q"], "--k", self.paths["k"],
                     "--v", self.paths["v"], "--mode", "eala", "--out", self.paths["out"]]

    def prepare(self):
        self.khat = center(self.k)

    def _attend(self) -> int:
        code = self.e.cli.cli_main(self.argv)
        if code != 0:
            raise RuntimeError(f"eala attend exited with {code}")
        return code

    def round(self, r):
        rng = np.random.default_rng([self.seed, r.index + 1])
        res = r.run("primary", self.e.core.eala_attention, self.q, self.k, self.v)
        if res is not None:
            rows = sample_rows(rng, self.n, self.CHECK_ROWS)
            r.problems += check_eala("eala_attention", self.e, self.q, self.khat, self.v, res, rows)
        attended = r.run("secondary", self._attend) is not None
        if res is not None and attended:
            r.problems += close("attend file output", read_ealt(self.paths["out"]), res.output)

    def computed(self):
        n, c = self.n, self.c
        payload = F8 * n * c
        return {  # two eala_attention calls per round, one of them inside attend
            "core.key_moments": {"flop": 2 * 2 * n * c * c, "bytes": 2 * payload},
            # q @ gram for the score moments, in eala_attention's self time
            "core.eala_attention.self": {"flop": 2 * 2 * n * c * c, "bytes": 2 * payload},
            "core.eala_forward_linear": {"flop": 2 * 4 * n * c * c, "bytes": 2 * 4 * payload},
            "tensorio.read_tensor": {"flop": 0, "bytes": 3 * payload},
            "tensorio.write_tensor": {"flop": 0, "bytes": payload},
        }

    def reference(self):
        model = sum(self.e.bench.allocation_model("eala-linear", self.n, self.c).values())
        inputs = 3 * F8 * self.n * self.c / MIB
        return {"eala-linear": {"model_mib": model / MIB,
                                "measured_mib": inputs + peak_mib(
                                    self.e.core.eala_attention, self.q, self.k, self.v)}}


class ShortBatch(Workload):
    """A fixed stream of short independent sequences, n log-uniform in
    [16, 512]; the 40% with n < c take the quadratic branch."""

    name = "short-batch"
    primary = "eala_attention call, mean over the stream"
    secondary = "exact_attention call, mean over the stream"
    C = 64
    N_MIN, N_MAX = 16, 512
    SCALE = 0.1
    CHUNK = 64
    CHECK_ROWS = 8

    def __init__(self, quick: bool):
        self.count = 16 if quick else 512

    def setup(self, e, seed, workdir):
        self.e, self.seed = e, seed
        rng = np.random.default_rng(seed)
        # stratified: one draw per equal slice of log n, so every seed gets
        # the same mix of lengths up to rounding
        u = (np.arange(self.count) + rng.random(self.count)) / self.count
        ns = np.rint(self.N_MIN * (self.N_MAX / self.N_MIN) ** u).astype(int)
        ns = ns[rng.permutation(self.count)]
        seeds = rng.integers(0, 1 << 62, size=self.count)
        wl = e.workload
        self.seqs = [wl.gen_workload(wl.WorkloadSpec(int(n), self.C, self.SCALE, int(s)))
                     for n, s in zip(ns, seeds)]
        self.ns = [int(n) for n in ns]

    def prepare(self):
        self.khats = [center(k) for _, k, _ in self.seqs]

    def round(self, r):
        rng = np.random.default_rng([self.seed, r.index + 1])
        eala_attention = self.e.core.eala_attention
        exact_attention = self.e.oracle.exact_attention
        for lo in range(0, self.count, self.CHUNK):
            chunk = range(lo, min(lo + self.CHUNK, self.count))
            outs = [r.run("primary", eala_attention, *self.seqs[i]) for i in chunk]
            for i, res in zip(chunk, outs):
                if res is not None:
                    q, _, v = self.seqs[i]
                    rows = sample_rows(rng, self.ns[i], self.CHECK_ROWS)
                    r.problems += check_eala(f"sequence {i} eala", self.e, q, self.khats[i], v,
                                             res, rows)
            outs = [r.run("secondary", exact_attention, *self.seqs[i]) for i in chunk]
            for i, res in zip(chunk, outs):
                if res is not None:
                    rows = sample_rows(rng, self.ns[i], self.CHECK_ROWS)
                    r.problems += check_exact(f"sequence {i} exact", *self.seqs[i], res, rows)

    def describe(self):
        return {"sequences": self.count, "c": self.C, "score_scale": self.SCALE,
                "n_min": min(self.ns), "n_max": max(self.ns),
                "n_below_c_share": sum(1 for n in self.ns if n < self.C) / self.count}

    def computed(self):
        c = self.C
        quad = [n for n in self.ns if n < c]
        return {
            "core.eala_forward_quadratic": {
                "flop": sum(4 * n * n * c for n in quad),
                "bytes": sum(F8 * (3 * n * c + 2 * n * n) for n in quad)},
            "oracle.exact_attention": {
                "flop": sum(4 * n * n * c for n in self.ns),
                "bytes": sum(F8 * (4 * n * c + 2 * n * n) for n in self.ns)},
        }


class MhaLayer(Workload):
    """mha_forward at n = 2048, model_dim = 512, 8 heads, in both modes."""

    name = "mha-layer"
    primary = "mha_forward in eala mode"
    secondary = "mha_forward in exact mode"
    # x entries N(0, 0.05^2) put per-head max |score| near 0.1.
    X_SCALE = 0.05
    CHECK_ROWS = 16

    def __init__(self, quick: bool):
        self.n, self.dim, self.heads = (128, 128, 2) if quick else (2048, 512, 8)

    def describe(self):
        return {"n": self.n, "model_dim": self.dim, "heads": self.heads, "x_scale": self.X_SCALE}

    def setup(self, e, seed, workdir):
        self.e, self.seed = e, seed
        sub = np.random.default_rng(seed).integers(0, 1 << 62, size=2)
        self.params = e.mha.mha_init(self.dim, self.heads, int(sub[0]))
        self.x = e.numerics.gaussian_matrix(self.n, self.dim, int(sub[1]), self.X_SCALE)

    def round(self, r):
        rng = np.random.default_rng([self.seed, r.index + 1])
        for kind, mode in (("primary", "eala"), ("secondary", "exact")):
            out = r.run(kind, self.e.mha.mha_forward, self.params, self.x, mode)
            if out is not None:
                rows = sample_rows(rng, self.n, self.CHECK_ROWS)
                r.problems += check_mha(f"mha {mode}", self.params, self.x, out, mode, rows)

    def computed(self):
        hd = self.dim // self.heads
        return {"oracle.exact_attention": {
            "flop": self.heads * 4 * self.n * self.n * hd,
            "bytes": self.heads * F8 * (4 * self.n * hd + 2 * self.n * self.n)}}

    def reference(self):
        hd = self.dim // self.heads
        p = self.params
        q, k, v = (self.x @ w[:, :hd] for w in (p.w_query, p.w_key, p.w_value))
        model = sum(self.e.bench.allocation_model("exact", self.n, hd).values())
        inputs = 3 * F8 * self.n * hd / MIB
        return {"exact-per-head": {"model_mib": model / MIB,
                                   "measured_mib": inputs + peak_mib(
                                       self.e.oracle.exact_attention, q, k, v)}}


class FidelityReport(Workload):
    """compare on a calibrated n = 1024, c = 32 workload at score scale 0.1."""

    name = "fidelity-report"
    primary = "compare report"
    secondary = "exact_attention with kept weights on the report's inputs"
    SCALE = 0.1
    CHECK_ROWS = 16
    # one exact call takes well under 1% of a compare; repeating it gives
    # the secondary metric enough samples per round to be steady
    EXACT_REPS = 8

    def __init__(self, quick: bool):
        self.n, self.c = (64, 16) if quick else (1024, 32)

    def describe(self):
        return {"n": self.n, "c": self.c, "score_scale": self.SCALE,
                "exact_calls_per_round": self.EXACT_REPS}

    def setup(self, e, seed, workdir):
        self.e, self.seed = e, seed
        sub = int(np.random.default_rng(seed).integers(0, 1 << 62))
        self.spec = e.workload.WorkloadSpec(self.n, self.c, self.SCALE, sub)
        self.q, self.k, self.v = e.workload.gen_workload(self.spec)

    def round(self, r):
        rng = np.random.default_rng([self.seed, r.index + 1])
        rep = r.run("primary", self.e.fidelity.compare, self.spec)
        if rep is not None:
            r.problems += check_report("compare", rep, self.q, self.k)
        for _ in range(self.EXACT_REPS):
            res = r.run("secondary", self.e.oracle.exact_attention, self.q, self.k, self.v,
                        keep_weights=True)
            if res is not None:
                rows = sample_rows(rng, self.n, self.CHECK_ROWS)
                r.problems += check_exact("exact_attention", self.q, self.k, self.v, res, rows)

    def computed(self):
        n, c = self.n, self.c
        calls = 1 + self.EXACT_REPS  # one inside compare
        return {"oracle.exact_attention": {"flop": calls * 4 * n * n * c,
                                           "bytes": calls * F8 * (4 * n * c + 2 * n * n)}}


WORKLOADS = {w.name: w for w in (LongContext, ShortBatch, MhaLayer, FidelityReport)}
