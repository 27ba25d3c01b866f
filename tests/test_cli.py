import errno
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from eala import cli, tensorio
from eala.cli import cli_main
from eala.core import _QUERY_BLOCK, eala_attention
from eala.numerics import gaussian_matrix
from eala.oracle import _query_rows, exact_attention
from eala.tensorio import read_tensor, write_tensor


def full_disk(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "melt")
        assert code == 2

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(capsys, "compare", "--n", "many")
        assert code == 2

    def test_bad_n_list(self, capsys):
        code, _, _ = run(capsys, "bench", "--mode", "exact", "--n-list", "a,b")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "compare" in out


class TestCheck:
    def test_all_checks_pass(self, capsys, monkeypatch):
        # the real criteria run in tests/test_acceptance.py
        monkeypatch.setattr(cli, "CRITERIA", [(f"holds-{i}", lambda: (True, "fine"))
                                              for i in range(3)])
        code, out, _ = run(capsys, "check")
        assert code == 0
        assert "3/3 checks passed" in out
        assert "FAIL" not in out

    def test_failing_criterion_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "CRITERIA", [("holds", lambda: (True, "fine")),
                                              ("breaks", lambda: (False, "gap 0.5"))])
        code, out, _ = run(capsys, "check")
        assert code == 1
        assert "FAIL criterion 02 breaks: gap 0.5" in out
        assert "1/2 checks passed" in out

    def test_raising_criterion_fails_not_crashes(self, capsys, monkeypatch):
        def boom():
            raise ZeroDivisionError("empty sweep")
        monkeypatch.setattr(cli, "CRITERIA", [("crashes", boom)])
        code, out, _ = run(capsys, "check")
        assert code == 1
        assert "FAIL criterion 01 crashes: raised ZeroDivisionError('empty sweep')" in out


class TestCompare:
    def test_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "compare", "--n", "8", "--c", "4",
                           "--scale", "0.1", "--seed", "3")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["workload"]["n"] == 8
        assert len(parsed["per_query"]["kl"]) == 8

    def test_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "r.csv"
        code, out, _ = run(capsys, "compare", "--n", "8", "--c", "4",
                           "--format", "csv", "--out", str(out_path))
        assert code == 0 and out == ""
        lines = out_path.read_text().split("\n")
        assert lines[0].startswith("query,entropy_exact")
        assert len(lines) == 1 + 8 + 1 + 1 + 5 + 1

    def test_entropy_source_flag(self, capsys):
        _, out_a, _ = run(capsys, "compare", "--n", "8", "--c", "4", "--seed", "1")
        _, out_x, _ = run(capsys, "compare", "--n", "8", "--c", "4", "--seed", "1",
                          "--entropy-source", "exact")
        a, x = json.loads(out_a), json.loads(out_x)
        assert a["entropy_source"] == "approx" and x["entropy_source"] == "exact"
        assert a["per_query"]["theta_closed"] != x["per_query"]["theta_closed"]

    def test_exact_source_tracks_exact_at_small_scale(self, capsys):
        # 12 queries and keys of 4 dims at scores up to 0.5, about those of
        # attend's small-scale inputs
        code, out, _ = run(capsys, "compare", "--n", "12", "--c", "4", "--scale", "0.5",
                           "--seed", "9", "--entropy-source", "exact")
        assert code == 0
        assert json.loads(out)["aggregates"]["output_max_rel_error"] <= 0.05

    def test_deterministic_stdout(self, capsys):
        argv = ("compare", "--n", "16", "--c", "8", "--seed", "7")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_invalid_workload_is_command_failure(self, capsys):
        code, _, err = run(capsys, "compare", "--n", "0")
        assert code == 1 and "error" in err


class TestBench:
    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "bench", "--mode", "eala-linear",
                           "--n-list", "32,64", "--c", "8", "--repeats", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mode,n,c,wall_time,peak_bytes"
        assert len(lines) == 3
        assert lines[1].startswith("eala-linear,32,8,")

    def test_json_includes_slope_when_fittable(self, capsys):
        code, out, _ = run(capsys, "bench", "--mode", "eala-linear",
                           "--n-list", "32,64,128", "--c", "8",
                           "--repeats", "1", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["mode"] == "eala-linear"
        assert len(parsed["records"]) == 3
        assert all(r["peak_bytes"] >= 8 * r["n"] * 8 for r in parsed["records"])
        assert isinstance(parsed["loglog_slope"], float)

    def test_json_slope_null_under_three_sizes(self, capsys):
        _, out, _ = run(capsys, "bench", "--mode", "exact", "--n-list", "16,32",
                        "--c", "4", "--repeats", "1", "--format", "json")
        assert json.loads(out)["loglog_slope"] is None

    def test_mode_is_required(self, capsys):
        code, _, _ = run(capsys, "bench", "--n-list", "16,32")
        assert code == 2

    def test_budget_refusal_exits_one(self, capsys):
        code, _, err = run(capsys, "bench", "--mode", "exact",
                           "--n-list", "65536", "--c", "4",
                           "--mem-limit-bytes", str(1 << 20))
        assert code == 1 and "budget" in err

    def test_descending_sizes_exit_one(self, capsys):
        code, _, _ = run(capsys, "bench", "--mode", "exact", "--n-list", "64,32")
        assert code == 1


class TestAttend:
    def write_inputs(self, tmp_path, n=12, c=4, seed=0):
        q = gaussian_matrix(n, c, seed) * 0.05
        k = gaussian_matrix(n, c, seed + 1)
        v = gaussian_matrix(n, c, seed + 2)
        paths = {}
        for name, mat in (("q", q), ("k", k), ("v", v)):
            p = tmp_path / f"{name}.bin"
            write_tensor(p, mat)
            paths[name] = str(p)
        return paths, (q, k, v)

    def test_exact_mode_matches_oracle(self, capsys, tmp_path):
        paths, (q, k, v) = self.write_inputs(tmp_path)
        out_path = tmp_path / "out.bin"
        code, _, _ = run(capsys, "attend", "--q", paths["q"], "--k", paths["k"],
                         "--v", paths["v"], "--mode", "exact",
                         "--out", str(out_path))
        assert code == 0
        np.testing.assert_allclose(read_tensor(out_path),
                                   exact_attention(q, k, v).output, atol=1e-12)

    def test_forced_branches_agree(self, capsys, tmp_path):
        paths, _ = self.write_inputs(tmp_path, seed=5)
        outs = {}
        for mode in ("eala-linear", "eala-quadratic"):
            out_path = tmp_path / f"{mode}.bin"
            code, _, _ = run(capsys, "attend", "--q", paths["q"],
                             "--k", paths["k"], "--v", paths["v"],
                             "--mode", mode, "--out", str(out_path))
            assert code == 0
            outs[mode] = read_tensor(out_path)
        a, b = outs["eala-linear"], outs["eala-quadratic"]
        denom = float(np.max(np.abs(a))) + 1e-15
        assert float(np.max(np.abs(a - b))) / denom <= 1e-9

    def test_entropy_source_flag_is_a_usage_error(self, capsys, tmp_path):
        # the exact entropy source is a setting of compare alone
        paths, _ = self.write_inputs(tmp_path)
        out_path = tmp_path / "out.bin"
        code, _, err = run(capsys, "attend", "--q", paths["q"], "--k", paths["k"],
                           "--v", paths["v"], "--entropy-source", "exact",
                           "--out", str(out_path))
        assert code == 2 and "--entropy-source" in err
        assert not out_path.exists()

    def test_large_keys_exit_zero(self, capsys, tmp_path):
        # keys of magnitude 1e20 leave column sums far above 1 after
        # centring, and the entropy estimate reads none of them
        paths = {}
        for seed, name in enumerate("qkv", 1):
            paths[name] = tmp_path / f"{name}.bin"
            scale = 1e20 if name == "k" else 1.0
            write_tensor(paths[name], gaussian_matrix(64, 16, seed, 0.1) * scale)
        out_path = tmp_path / "out.bin"
        code, _, err = run(capsys, "attend", "--q", str(paths["q"]), "--k", str(paths["k"]),
                           "--v", str(paths["v"]), "--out", str(out_path))
        assert code == 0, err
        got = read_tensor(out_path)
        assert got.shape == (64, 16) and np.isfinite(got).all()

    def test_missing_input_exits_three(self, capsys, tmp_path):
        paths, _ = self.write_inputs(tmp_path)
        code, _, err = run(capsys, "attend", "--q", str(tmp_path / "nope.bin"),
                           "--k", paths["k"], "--v", paths["v"],
                           "--out", str(tmp_path / "o.bin"))
        assert code == 3 and "error" in err

    def test_oversized_header_exits_three(self, capsys, tmp_path):
        paths, _ = self.write_inputs(tmp_path)
        bad = tmp_path / "huge.bin"
        bad.write_bytes(b"EALT" + bytes([1, 2, 2, 0]) + (2**32).to_bytes(8, "little") * 2)
        code, _, err = run(capsys, "attend", "--q", str(bad), "--k", paths["k"],
                           "--v", paths["v"], "--out", str(tmp_path / "o.bin"))
        assert code == 3 and "huge.bin" in err

    def test_corrupt_input_exits_three(self, capsys, tmp_path):
        paths, _ = self.write_inputs(tmp_path)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        code, _, _ = run(capsys, "attend", "--q", str(bad), "--k", paths["k"],
                         "--v", paths["v"], "--out", str(tmp_path / "o.bin"))
        assert code == 3

    def test_shape_mismatch_exits_one(self, capsys, tmp_path):
        paths, _ = self.write_inputs(tmp_path)
        small = tmp_path / "small.bin"
        write_tensor(small, gaussian_matrix(5, 4, 99))
        code, _, _ = run(capsys, "attend", "--q", paths["q"], "--k", str(small),
                         "--v", paths["v"], "--out", str(tmp_path / "o.bin"))
        assert code == 1


class TestStreamedAttend:
    """The eala modes stream their inputs through row readers: the output
    is the in-memory pipeline's with no entropies, bit for bit, and no
    input is held whole.
    The exact mode reads its inputs whole but holds no n x n buffer."""

    def write_inputs(self, tmp_path, n, c=16, dtype="f64"):
        paths = {}
        for i, name in enumerate("qkv"):
            p = tmp_path / f"{name}.bin"
            write_tensor(p, gaussian_matrix(n, c, 60 + i, 0.05 if name == "q" else 1.0), dtype)
            paths[name] = str(p)
        return paths

    def attend(self, paths, out, *extra):
        return cli_main(["attend", "--q", paths["q"], "--k", paths["k"], "--v", paths["v"],
                         "--out", str(out), *extra])

    @pytest.mark.parametrize("mode, path", [("eala", "auto"), ("eala-linear", "linear")])
    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("n", [_QUERY_BLOCK - 1, _QUERY_BLOCK, _QUERY_BLOCK + 1, 5000])
    def test_output_is_the_in_memory_bits(self, tmp_path, n, dtype, mode, path):
        paths = self.write_inputs(tmp_path, n, dtype=dtype)
        out = tmp_path / "out.bin"
        assert self.attend(paths, out, "--mode", mode) == 0
        want = eala_attention(*(read_tensor(paths[x]) for x in "qkv"), path=path, entropies=False)
        assert np.array_equal(read_tensor(out), want.output)

    def test_exact_mode_asks_for_no_entropies(self, tmp_path, monkeypatch):
        calls = []

        def spy(q, k, v, *args, **kwargs):
            calls.append((args, kwargs))
            res = exact_attention(q, k, v, *args, **kwargs)
            assert res.entropies is None
            return res

        paths = self.write_inputs(tmp_path, 300)
        out = tmp_path / "out.bin"
        monkeypatch.setattr(cli, "exact_attention", spy)
        assert self.attend(paths, out, "--mode", "exact") == 0
        assert calls == [((), {"entropies": False})]
        q, k, v = (read_tensor(paths[x]) for x in "qkv")
        assert np.array_equal(read_tensor(out), exact_attention(q, k, v).output)

    @pytest.mark.parametrize("mode", ["eala", "eala-linear"])
    def test_output_tracks_the_default_call(self, tmp_path, mode):
        # calibrated queries: every block is certified, and skips S2
        paths = self.write_inputs(tmp_path, 5000)
        out = tmp_path / "out.bin"
        assert self.attend(paths, out, "--mode", mode) == 0
        want = eala_attention(*(read_tensor(paths[x]) for x in "qkv")).output
        got = read_tensor(out)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["q", "k", "v"])
    def test_nan_in_the_last_row_exits_three_before_any_output(self, capsys, tmp_path, name):
        n, c = 5000, 16
        paths = self.write_inputs(tmp_path, n, c)
        bad = tmp_path / f"{name}.bin"
        raw = bytearray(bad.read_bytes())
        raw[-8:] = struct.pack("<d", np.nan)
        bad.write_bytes(bytes(raw))
        out = tmp_path / "out.bin"
        assert self.attend(paths, out) == 3
        assert f"error: {bad}: payload contains non-finite values" in capsys.readouterr().err
        # nor any temporary file: Q's last block is read after the others
        # are written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.bin", "q.bin", "v.bin"]

    @pytest.mark.parametrize("name", ["q", "v"])
    def test_failure_leaves_an_existing_output_as_it_was(self, tmp_path, name):
        paths = self.write_inputs(tmp_path, 5000)
        out = tmp_path / "out.bin"
        write_tensor(out, gaussian_matrix(3, 2, 70))
        before = out.read_bytes()
        bad = tmp_path / f"{name}.bin"
        raw = bytearray(bad.read_bytes())
        raw[-8:] = struct.pack("<d", np.nan)
        bad.write_bytes(bytes(raw))
        assert self.attend(paths, out) == 3
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.bin", "out.bin", "q.bin", "v.bin"]

    @pytest.mark.parametrize("name", ["q", "k", "v"])
    def test_output_over_an_input_is_the_in_memory_bits(self, tmp_path, name):
        n = 2 * _QUERY_BLOCK + 1
        paths = self.write_inputs(tmp_path, n)
        want = eala_attention(*(read_tensor(paths[x]) for x in "qkv"), entropies=False).output
        assert self.attend(paths, paths[name]) == 0
        assert np.array_equal(read_tensor(paths[name]), want)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.bin", "q.bin", "v.bin"]

    @pytest.mark.parametrize("mode", ["exact", "eala"])
    def test_a_second_output_is_allocated_with_the_same_bits(self, tmp_path, mode):
        # the file that replaces --out has its blocks allocated, so the
        # rename over the first output leaves no delayed allocation to flush
        paths = self.write_inputs(tmp_path, 2 * _QUERY_BLOCK + 1)
        out = tmp_path / "out.bin"
        for _ in range(2):
            assert self.attend(paths, out, "--mode", mode) == 0
        q, k, v = (read_tensor(paths[x]) for x in "qkv")
        want = (exact_attention(q, k, v) if mode == "exact"
                else eala_attention(q, k, v, entropies=False)).output
        assert np.array_equal(read_tensor(out), want)
        if hasattr(os, "posix_fallocate"):
            assert out.stat().st_blocks * 512 >= out.stat().st_size

    @pytest.mark.parametrize("mode", ["exact", "eala", "eala-quadratic"])
    def test_a_full_disk_exits_three_before_any_compute(self, capsys, tmp_path, monkeypatch,
                                                        mode):
        def unreachable(*args, **kwargs):
            raise AssertionError("computed although the output could not be made")

        paths = self.write_inputs(tmp_path, 300)
        out = tmp_path / "out.bin"
        write_tensor(out, gaussian_matrix(3, 2, 71))
        before = out.read_bytes()
        monkeypatch.setattr(os, "posix_fallocate", full_disk, raising=False)
        monkeypatch.setattr(cli, "eala_attention", unreachable)
        monkeypatch.setattr(cli, "exact_attention", unreachable)
        assert self.attend(paths, out, "--mode", mode) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.bin", "out.bin", "q.bin", "v.bin"]

    def test_a_failed_exact_write_leaves_the_output_as_it_was(self, capsys, tmp_path,
                                                              monkeypatch):
        paths = self.write_inputs(tmp_path, 300)
        out = tmp_path / "out.bin"
        write_tensor(out, gaussian_matrix(3, 2, 72))
        before = out.read_bytes()
        monkeypatch.setattr(tensorio, "write_tensor", full_disk)
        assert self.attend(paths, out, "--mode", "exact") == 3
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.bin", "out.bin", "q.bin", "v.bin"]

    def test_peak_holds_no_output_sized_buffer(self, tmp_path):
        # at 65536 x 64 the output is 32 MiB.  The temperatures are held
        # whole, and every block is certified, so two (2048, 64) blocks at
        # once: a Q block and the output block it makes, 2.7 MiB in all.
        # A third block's room is the headroom.  A Q block scaled by
        # 1/(n theta), or a written output block held through the next
        # block, would fail it, as the S2 path's 4.1 MiB does.
        n, c = 65536, 64
        paths = self.write_inputs(tmp_path, n, c)
        out = tmp_path / "out.bin"
        self.attend(paths, out)  # warm-up
        tracemalloc.start()
        try:
            assert self.attend(paths, out) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n + 3 * _QUERY_BLOCK * c)

    def test_peak_holds_the_output_and_a_few_blocks(self, tmp_path):
        n, c, d = 16384, 64, 64
        paths = self.write_inputs(tmp_path, n, c)
        out = tmp_path / "out.bin"
        self.attend(paths, out)  # warm-up
        tracemalloc.start()
        try:
            assert self.attend(paths, out) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * d + 4 * _QUERY_BLOCK * c + 8 * n)

    def test_exact_mode_holds_no_n2_buffer(self, tmp_path):
        # the inputs, read whole, the output, exact_attention's one block
        # of query rows by n keys, as it asks for no entropies, and a few
        # n-long vectors; the n x n scores alone would be 128 MiB
        n, c = 4096, 16
        paths = self.write_inputs(tmp_path, n, c)
        out = tmp_path / "out.bin"
        self.attend(paths, out, "--mode", "exact")  # warm-up
        tracemalloc.start()
        try:
            assert self.attend(paths, out, "--mode", "exact") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (4 * n * c + _query_rows(n) * n + 8 * n)


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "eala", "compare", "--n", "4", "--c", "2"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["workload"]["n"] == 4
