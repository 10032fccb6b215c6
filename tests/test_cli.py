"""Command line behaviour: formats, exit codes, refusals and the cache."""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

import coxcells
import coxcells.classify as classify_mod
import coxcells.jring as jring_mod
from coxcells import cli
from coxcells.cli import CACHE_ENV, main
from coxcells.errors import InternalInconsistencyError

from oracles import reseal_cache


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subprocess_env():
    """This environment with the package importable and no cache from
    outside."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(coxcells.__file__)),
                    env.get("PYTHONPATH")) if p
    )
    return env


def test_group_json(capsys):
    code, out, err = _run(capsys, "group", "--type", "I2(5)")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "I2(5)"
    assert data["order"] == 10
    assert data["degrees"] == [2, 5]
    assert data["num_positive_roots"] == 5


# SHA-256 of `coxcells group --type G` stdout, recorded while the group
# was still enumerated through exact cyclotomic matrices: each pin covers
# the fingerprint, so the ShortLex words and the element numbering
GROUP_SHA256 = {
    "A4": "5e5dfc5af3b7132911e638dc5edd85ee4a4f5e8e4bb7c61e2119fc91852fb799",
    "B4": "4878ec35e8491b0e22fe4672853123403a529dfd209b9ab5e76ee2a918af421b",
    "D4": "3b4d6a75c56826b9d11fcbeb8529adefbb8179f2ac6fd01acd048c30d07406a9",
    "D5": "95bb5b6660f472462330df45f7d6f37972d3454dfcb8dd90534ff4286b2aa3ef",
    "F4": "85a5555d16aafce678f6b8fffde914c4d98d9ac95014aea6eab1f3ac2cf8e6fd",
    "H3": "3301f3b59281aed6f064ede4785dda7c28cafb03ef4186f5f63f8560e1ca8f5d",
    "H4": "9a944e750706c3a575d3fa5ce9b8b3354044c67c2cca5c222700bf761bfc7ac7",
    "I2(5)": "e28e9f6ed5fb5b2513ca7cdf5775aba1982b5844ad3a4ead6edf8ea8a0022e0a",
    "I2(60)": "17a3c3f5ec8585eee13f5ef9dc85dd2d40ee4baf36c53af032d1d533388ea87e",
    "I2(100)": "128d24c0d1e9f9b37260e14aaed2421352cba08b07ee6d1853602d6f2f87314e",
}


@pytest.mark.parametrize("symbol", sorted(GROUP_SHA256))
def test_group_output_pinned(capsys, symbol):
    code, out, _ = _run(capsys, "group", "--type", symbol)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GROUP_SHA256[symbol]


def test_group_text_format(capsys):
    code, out, _ = _run(capsys, "group", "--type", "H3", "--format", "text")
    assert code == 0
    assert "H3" in out
    assert "120" in out


def test_cells_json_a3(capsys):
    code, out, _ = _run(capsys, "cells", "--type", "A3")
    assert code == 0
    data = json.loads(out)
    assert len(data["left_cells"]) == 10
    assert len(data["two_sided_cells"]) == 5
    assert sorted(c["a"] for c in data["two_sided_cells"]) == [0, 1, 2, 3, 6]
    assert len(data["distinguished"]) == 10
    assert data["elements"][0]["word"] == "e"
    assert data["elements"][0]["a"] == 0


def test_cells_csv(capsys):
    code, out, _ = _run(
        capsys, "cells", "--type", "I2(3)", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    # header plus one line per element
    assert len(rows) == 7
    assert "word" in rows[0]


def test_chartable_json_i23(capsys):
    code, out, _ = _run(capsys, "chartable", "--type", "I2(3)")
    assert code == 0
    data = json.loads(out)
    assert len(data["irreps"]) == 3
    assert sorted(r["dim"] for r in data["irreps"]) == [1, 1, 2]
    assert sum(c["size"] for c in data["classes"]) == 6


def test_chartable_text_h3(capsys):
    code, out, _ = _run(
        capsys, "chartable", "--type", "H3", "--format", "text"
    )
    assert code == 0
    assert "phi5_1" in out


# SHA-256 of `coxcells chartable --type G` stdout, recorded while the
# table was still checked under every one of the phi(M) maps zeta -> eta^j
# on Fraction-valued rows
CHARTABLE_SHA256 = {
    "A1": "835a8a93b2f3f806847ce788d4d85cb2cddd00cd3e28491be142229c1e5c5ac1",
    "A2": "38b98816d70274a4e2cca6ce1ce89f36b4b76cd6472de34733bff26b95f62fa9",
    "A3": "63df8d06c6aa9e033fc67701e12386bddc7c4d572641c826b635da13e343bf68",
    "A4": "313987ae65e8f6216201ecbd29cf5f812cae062c98370c41799b1f99805591b0",
    "A5": "9831659d01a5b2004eaba139fc1517d0c2d42652723cc91c50fea2e65c8585c1",
    "B2": "eff5dc85469378240845e2ec410387d873ee73e8f7d1805d71702e1dcd91f900",
    "B3": "b56aaa40f0191c24549339715414876103c9de54432c97f2c9d32cdb70787084",
    "B4": "846baea5d5938d228e5d0feffb7c817635d69cbe87d1bdcbe3a950702eeb2964",
    "B5": "4e2e96fdf341bceb1450e84aca63831c15c358e6904b46cbd83132144f56609a",
    "D4": "c3206c9bebf2c0439ea52ca3a5a513c38fba087718622b09ef720b7c4c68f8a8",
    "D5": "47cbbc9beb278076612415db76c8132b0d36145cf05d4e21b9c26d986594a41b",
    "F4": "4ca0c3dad5d6aa8f5f792d6d63280350daa626e950906ec01892d6112259a8ad",
    "H3": "14083689cff5dfd75c12530c0aee7cc8f45dcff3a5226a7c6797b7d7f1abce3c",
    "I2(5)": "08481ef8c1640f5debf0258a02f40b5ab6bfced199587efcf58613f50332940d",
    "I2(8)": "a8d9cbd00bf36f6d2068f58d1a44f7dcb705c99a8374f73454f8f4d1a1563ceb",
    "I2(60)": "dce9b8444584069de073fe491c3d054e6b5753ace8a0ff3a7d3184a954739aa7",
}

# the same for the larger tables; E6 is built with --max-order 60000
HEAVY_CHARTABLE_SHA256 = {
    "E6": "e4df421ce456fa36181aa6c99469a9711ac7ff0c0f54a4dea0c64d1592de4d07",
    "H4": "91dd9f4be2630300bed2fae4059489c6afbbb9772ece63a44b9be6dcb31bd3ec",
    "I2(100)": "b84e9d460b76d24b1f6d6e2a497315c19f4ccca4e5f57c33bea69482183f9963",
    "I2(173)": "4f0bb1f2dffd984490d7391aa2c8173ad2bf057f05227cae65a32f0531a8696b",
}


@pytest.mark.parametrize("symbol", sorted(CHARTABLE_SHA256))
def test_chartable_output_pinned(capsys, symbol):
    code, out, _ = _run(capsys, "chartable", "--type", symbol)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTABLE_SHA256[symbol]


@pytest.mark.heavy
@pytest.mark.parametrize("symbol", sorted(HEAVY_CHARTABLE_SHA256))
def test_heavy_chartable_output_pinned(capsys, symbol):
    code, out, _ = _run(capsys, "chartable", "--type", symbol,
                        "--max-order", "60000")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == HEAVY_CHARTABLE_SHA256[symbol])


def test_classify_i25(capsys):
    code, out, _ = _run(capsys, "classify", "--type", "I2(5)")
    assert code == 0
    data = json.loads(out)
    assert data["all_claims_pass"] is True
    assert data["expected_exceptional"] is None
    specials = [r["label"] for r in data["irreps"] if r["special"]]
    assert len(specials) == 3
    assert all(r["ordinary"] for r in data["irreps"])
    assert all(not r["exceptional"] for r in data["irreps"])


def test_classify_claim_subset(capsys):
    code, out, _ = _run(
        capsys, "classify", "--type", "I2(3)", "--claims", "1.5a,1.6b"
    )
    assert code == 0
    data = json.loads(out)
    assert [c["id"] for c in data["claims"]] == ["1.5a", "1.6b"]


def test_verify_a3(capsys):
    code, out, _ = _run(capsys, "verify", "--type", "A3")
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert len(data["claims"]) == 5


def test_unknown_claim_is_usage_error(capsys):
    code, _, err = _run(
        capsys, "verify", "--type", "A3", "--claims", "1.9x"
    )
    assert code == 2
    assert "1.9x" in err


def test_repeated_claim_is_usage_error(capsys, monkeypatch):
    # refused before any group is built
    monkeypatch.setattr(cli, "build_group",
                        lambda *a, **k: pytest.fail("group built"))
    code, out, err = _run(
        capsys, "verify", "--type", "A3", "--claims", "1.2b,1.2b"
    )
    assert code == 2
    assert out == ""
    assert "usage error" in err
    assert "1.2b" in err


def test_oversize_group_refused(capsys):
    code, _, err = _run(capsys, "group", "--type", "E8")
    assert code == 2
    assert "696729600" in err
    # the refusal names the flag that lifts the cap
    assert "--max-order" in err


def test_heavy_group_needs_flag(capsys):
    code, _, err = _run(capsys, "cells", "--type", "F4", "--max-order",
                        "2000")
    assert code == 2
    assert "--heavy" in err


def test_h4_classification_refused_before_any_scan(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("polynomial work started")

    monkeypatch.setattr("coxcells.klbase.compute_kl", forbidden)
    monkeypatch.setattr("coxcells.jring.stream_h_blocks", forbidden)
    code, out, err = _run(capsys, "classify", "--type", "H4", "--heavy")
    assert code == 2
    assert out == ""
    assert "H4" in err


def test_jobs_below_one_is_usage_error(capsys):
    code, out, err = _run(capsys, "cells", "--type", "I2(3)", "--jobs", "0")
    assert code == 2
    assert out == ""
    assert "--jobs" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_max_order_below_one_is_usage_error(capsys, monkeypatch, cap):
    # refused before any group is built, not read as a size refusal
    monkeypatch.setattr(cli, "build_group",
                        lambda *a, **k: pytest.fail("group built"))
    code, out, err = _run(capsys, "group", "--type", "A3", "--max-order", cap)
    assert code == 2
    assert out == ""
    assert err == ("coxcells: usage error: --max-order must be at least 1, "
                   f"not {cap}\n")


def test_jobs_above_cpu_count_is_usage_error(capsys, monkeypatch):
    # refused before any group is built
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "build_group",
                        lambda *a, **k: pytest.fail("group built"))
    code, out, err = _run(capsys, "classify", "--type", "I2(3)", "--jobs", "3")
    assert code == 2
    assert out == ""
    assert "--jobs" in err


def test_jobs_changes_nothing(capsys, monkeypatch, tmp_path):
    # every block pass runs in this process, whatever --jobs says
    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    for argv in (("classify", "--type", "B3"), ("cells", "--type", "A3")):
        outs = []
        for jobs in ("1", "2"):
            cache = str(tmp_path / f"{argv[0]}-{jobs}")
            code, out, err = _run(capsys, *argv, "--jobs", jobs,
                                  "--cache-dir", cache)
            assert code == 0 and err == "", (argv, jobs)
            outs.append(out)
        assert outs[0] == outs[1], argv


def test_bad_type_rejected(capsys):
    code, _, err = _run(capsys, "group", "--type", "Q9")
    assert code == 2
    assert err


def test_cache_round_trip_byte_identical(capsys, tmp_path):
    cache = str(tmp_path / "store")
    args = ("classify", "--type", "I2(5)", "--cache-dir", cache)
    code, cold, _ = _run(capsys, *args)
    assert code == 0
    assert os.listdir(os.path.join(cache, "I2(5)")) == ["cache.bin"]
    code, warm, _ = _run(capsys, *args)
    assert code == 0
    assert cold == warm


def test_unusable_cache_dir_exits_3(capsys, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n")
    code, out, err = _run(
        capsys, "cells", "--type", "I2(3)", "--cache-dir", str(blocker)
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("coxcells: ")
    assert "Traceback" not in err


def test_failed_cache_write_leaves_no_temporary(capsys, tmp_path):
    # a directory in the place of cache.bin makes the move into place fail
    cache = tmp_path / "store"
    (cache / "A3" / "cache.bin").mkdir(parents=True)
    args = ("cells", "--type", "A3", "--cache-dir", str(cache))
    for _ in range(2):
        code, out, _ = _run(capsys, *args)
        assert code == 3
        assert out == ""
        assert not list(cache.rglob("*.tmp"))
    (cache / "A3" / "cache.bin").rmdir()
    code, _, _ = _run(capsys, *args)
    assert code == 0
    assert (cache / "A3" / "cache.bin").is_file()
    assert not list(cache.rglob("*.tmp"))


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(group):
        raise InternalInconsistencyError("invariant failed")

    monkeypatch.setattr("coxcells.chartab.character_table", broken)
    code, out, err = _run(capsys, "chartable", "--type", "I2(3)")
    assert code == 3
    assert out == ""
    assert err == "coxcells: internal error: invariant failed\n"


def test_failed_claim_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(
        classify_mod._CLAIMS, "1.5a", lambda result: ("fail", {})
    )
    code, out, _ = _run(
        capsys, "verify", "--type", "I2(5)", "--format", "text"
    )
    assert code == 1
    assert "FAILURES PRESENT" in out
    code, out, _ = _run(capsys, "classify", "--type", "I2(5)")
    assert code == 1
    assert json.loads(out)["all_claims_pass"] is False


def test_cache_env_variable(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envstore"
    monkeypatch.setenv(CACHE_ENV, str(cache))
    code, _, _ = _run(capsys, "cells", "--type", "I2(3)")
    assert code == 0
    assert (cache / "I2(3)" / "cache.bin").exists()


def test_corrupt_cache_recomputed(capsys, tmp_path):
    cache = tmp_path / "broken"
    args = ("cells", "--type", "I2(3)", "--cache-dir", str(cache))
    code, first, _ = _run(capsys, *args)
    assert code == 0
    (cache / "I2(3)" / "cache.bin").write_bytes(b"garbage")
    code, again, err = _run(capsys, *args)
    assert code == 0
    assert first == again
    assert "cache" in err


# cache.bin: magic, version, fingerprint record, element count, the
# record of packed P values (a value count, then their byte lengths and
# bytes), then one record per element of its ys and then their value
# indices, the a record, the lead record and the digest
def _values_at(data):
    (fp_len,) = struct.unpack_from("<I", data, 8)
    return 12 + fp_len + 4


def _first_record_at(data):
    at = _values_at(data)
    (n,) = struct.unpack_from("<I", data, at)
    return at + 4 + n


def _oversized_record(d):
    # a value count beyond the record's length
    def edit(data):
        struct.pack_into("<I", data, _values_at(data) + 4, 10**6)

    reseal_cache(d, edit)


def _record_with_trailing_bytes(d):
    def edit(data):
        at = _first_record_at(data)
        (n,) = struct.unpack_from("<I", data, at)
        struct.pack_into("<I", data, at, n + 4)
        data[at + 4 + n:at + 4 + n] = b"JUNK"

    reseal_cache(d, edit)


def _no_p_rows(d):
    # the P values and rows, what kl.bin held, cut out of the file
    def edit(data):
        at = _values_at(data)
        (size,) = struct.unpack_from("<I", data, at - 4)
        for _ in range(size + 1):
            (n,) = struct.unpack_from("<I", data, at)
            del data[at:at + 4 + n]

    reseal_cache(d, edit)


def _lead_with_trailing_bytes(d):
    reseal_cache(d, lambda data: data.extend(b"JUNK"))


def _fingerprint_not_utf8(d):
    def edit(data):
        data[12] = 0xFF

    reseal_cache(d, edit)


def _format_5(d):
    # a whole file of an older format, sealed with a matching digest
    reseal_cache(d, lambda data: struct.pack_into("<I", data, 4, 5))


def _format_6(d):
    # a whole file of the previous format, sealed with a matching digest
    reseal_cache(d, lambda data: struct.pack_into("<I", data, 4, 6))


def _digest_mismatch(d):
    path = d / "cache.bin"
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


def _empty_file(d):
    (d / "cache.bin").write_bytes(b"")


@pytest.mark.parametrize(
    "corrupt, reason",
    [(_no_p_rows, "P value record size mismatch"),
     (_oversized_record, "unreadable cache"),
     (_record_with_trailing_bytes, "P record size mismatch"),
     (_lead_with_trailing_bytes, "trailing bytes after the lead record"),
     (_fingerprint_not_utf8, "unreadable cache"),
     (_format_5, "cache format 5 != 7"),
     (_format_6, "cache format 6 != 7"),
     (_digest_mismatch, "does not match its digest"),
     (_empty_file, "does not match its digest")],
    ids=["kl-missing", "record-oversized", "record-trailing-bytes",
         "lead-trailing-bytes", "fingerprint-not-utf8", "format-5",
         "format-6", "digest-mismatch", "empty-file"],
)
def test_undecodable_cache_recomputed(capsys, tmp_path, monkeypatch, corrupt,
                                      reason):
    # one notice and the cold report; the file is written again, so the
    # rerun is warm and silent
    args = ("cells", "--type", "I2(3)", "--cache-dir", str(tmp_path))
    code, cold, _ = _run(capsys, *args)
    assert code == 0
    corrupt(tmp_path / "I2(3)")
    code, again, err = _run(capsys, *args)
    assert code == 0
    assert again == cold
    assert err.startswith("coxcells: cache invalid (") and reason in err
    assert err.endswith("); recomputing\n") and err.count("\n") == 1
    _forbid_streaming(monkeypatch)
    code, warm, err = _run(capsys, *args)
    assert code == 0
    assert warm == cold
    assert err == ""


def _payload_at(data, k):
    """Where the payload of record k starts, counting from the P values
    (0) through the P rows (1 to |W|) to the a (|W| + 1) and lead (|W| +
    2) records."""
    at = _values_at(data)
    for _ in range(k):
        (n,) = struct.unpack_from("<I", data, at)
        at += 4 + n
    return at + 4


def _size(data):
    return struct.unpack_from("<I", data, _values_at(data) - 4)[0]


def _lead_at(data):
    return _payload_at(data, _size(data) + 2)


def _zero_lead(data):
    # the first entry, h(0,0,0) at the identity, with coefficient 0
    struct.pack_into("<q", data, _lead_at(data) + 12, 0)


def _a_of_identity_one(data):
    struct.pack_into("<I", data, _payload_at(data, _size(data) + 1), 1)


def _first_lead_repeated(data):
    # the second entry overwritten by the first
    at = _lead_at(data)
    data[at + 20:at + 40] = data[at:at + 20]


def _two_leads_swapped(data):
    at = _lead_at(data)
    data[at:at + 40] = data[at + 20:at + 40] + data[at:at + 20]


@pytest.mark.parametrize(
    "edit, reason",
    [(_zero_lead, "nonpositive leading coefficient 0 at h(0,0,0)"),
     (_a_of_identity_one, "a(identity) = 1, not 0"),
     (_first_lead_repeated, "lead entries out of order or repeated"),
     (_two_leads_swapped, "lead entries out of order or repeated")],
    ids=["zero-lead", "a-of-identity", "lead-repeated", "leads-swapped"],
)
def test_cached_scan_failing_a_check_is_recomputed(capsys, tmp_path,
                                                   monkeypatch, edit, reason):
    # a scan sealed behind a good digest that the loader or the engine
    # refuses: one notice, the cold report, and the file written again
    args = ("cells", "--type", "H3", "--cache-dir", str(tmp_path))
    code, cold, _ = _run(capsys, *args)
    assert code == 0
    path = tmp_path / "H3" / "cache.bin"
    sealed = path.read_bytes()
    reseal_cache(tmp_path / "H3", edit)
    code, again, err = _run(capsys, *args)
    assert (code, again) == (0, cold)
    assert err == f"coxcells: cache invalid ({reason}); recomputing\n"
    assert path.read_bytes() == sealed
    _forbid_streaming(monkeypatch)
    code, warm, err = _run(capsys, *args)
    assert (code, warm, err) == (0, cold, "")


def _failing_ring_check(monkeypatch):
    def broken(gamma, cells, store):
        raise InternalInconsistencyError("ring check failed")

    monkeypatch.setattr(jring_mod, "distinguished_involutions", broken)


def test_cold_run_failing_a_ring_check_writes_no_cache(capsys, tmp_path,
                                                       monkeypatch):
    _failing_ring_check(monkeypatch)
    code, out, err = _run(capsys, "cells", "--type", "H3", "--cache-dir",
                          str(tmp_path))
    assert (code, out) == (3, "")
    assert err == "coxcells: internal error: ring check failed\n"
    assert not (tmp_path / "H3" / "cache.bin").exists()


def test_cold_path_after_a_failed_cache_still_exits_3(capsys, tmp_path,
                                                      monkeypatch):
    # the warm run's failure sends it cold, where the same failure is the
    # engine's: exit 3, and the cache is left as it was
    args = ("cells", "--type", "H3", "--cache-dir", str(tmp_path))
    assert _run(capsys, *args)[0] == 0
    path = tmp_path / "H3" / "cache.bin"
    sealed = path.read_bytes()
    _failing_ring_check(monkeypatch)
    code, out, err = _run(capsys, *args)
    assert (code, out) == (3, "")
    assert err == ("coxcells: cache invalid (ring check failed); "
                   "recomputing\ncoxcells: internal error: ring check "
                   "failed\n")
    assert path.read_bytes() == sealed


def _run_quiet(argv):
    """main(argv) with stdout and stderr captured, for use outside capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """An I2(5) cache written by a cold classify, and that run's stdout."""
    root = tmp_path_factory.mktemp("filled")
    code, cold, _ = _run_quiet(
        ["classify", "--type", "I2(5)", "--cache-dir", str(root)]
    )
    assert code == 0
    return root / "I2(5)", cold


@given(
    truncate=st.booleans(),
    at=st.integers(min_value=0, max_value=2**20),
    bit=st.integers(min_value=0, max_value=7),
)
def test_mutated_cache_is_recomputed_or_read_intact(
    filled_cache, truncate, at, bit
):
    # one flipped bit or a truncation anywhere in cache.bin: the warm run
    # prints the cold report, and every change is noticed
    pristine, cold = filled_cache
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(pristine, os.path.join(work, "I2(5)"))
        path = os.path.join(work, "I2(5)", "cache.bin")
        with open(path, "rb") as f:
            data = bytearray(f.read())
        at %= len(data)
        if truncate:
            del data[at:]
        else:
            data[at] ^= 1 << bit
        with open(path, "wb") as f:
            f.write(data)
        code, warm, err = _run_quiet(
            ["classify", "--type", "I2(5)", "--cache-dir", work]
        )
    assert code == 0, err
    assert warm == cold
    assert err.startswith("coxcells: cache invalid ("), err
    assert err.endswith("); recomputing\n") and err.count("\n") == 1, err


def _forbid_streaming(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an h block was streamed")

    monkeypatch.setattr("coxcells.jring.stream_h_blocks", forbidden)


def test_warm_cells_never_stream(capsys, tmp_path, monkeypatch):
    # the cold run enters the scan where the warm run is forbidden to
    real = jring_mod.stream_h_blocks
    streamed = []

    def recorder(*args, **kwargs):
        streamed.append(len(kwargs["ys"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(jring_mod, "stream_h_blocks", recorder)
    args = ("cells", "--type", "A3", "--cache-dir", str(tmp_path))
    code, cold, _ = _run(capsys, *args)
    assert code == 0
    assert streamed and streamed[0] > 0
    _forbid_streaming(monkeypatch)
    code, warm, err = _run(capsys, *args)
    assert code == 0
    assert warm == cold
    assert err == ""


def test_format_4_files_are_ignored(capsys, tmp_path, monkeypatch):
    # a type directory holding only the files of cache format 4: the run
    # is cold and silent, leaves them as they are, and the rerun is warm
    code, cold, _ = _run(capsys, "cells", "--type", "A3")
    assert code == 0
    d = tmp_path / "A3"
    d.mkdir()
    old = {
        "kl.bin": b"CXKL" + struct.pack("<I", 4),
        "lead.bin": b"CXLD" + struct.pack("<I", 4),
        "manifest.json": json.dumps({"format_version": 4}).encode(),
    }
    for name, data in old.items():
        (d / name).write_bytes(data)
    args = ("cells", "--type", "A3", "--cache-dir", str(tmp_path))
    code, out, err = _run(capsys, *args)
    assert code == 0
    assert out == cold
    assert err == ""
    _forbid_streaming(monkeypatch)
    code, warm, err = _run(capsys, *args)
    assert code == 0
    assert warm == cold
    assert err == ""
    assert sorted(os.listdir(d)) == ["cache.bin", *sorted(old)]
    for name, data in old.items():
        assert (d / name).read_bytes() == data


def test_concurrent_cold_writers_share_a_cache(capsys, tmp_path):
    # two processes fill the same cache directory at once; each prints the
    # report, and what they leave is read back warm without a notice
    code, cold, _ = _run(capsys, "cells", "--type", "A3")
    assert code == 0
    args = ("cells", "--type", "A3", "--cache-dir", str(tmp_path))
    procs = [
        subprocess.Popen([sys.executable, "-m", "coxcells.cli", *args],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=_subprocess_env())
        for _ in range(2)
    ]
    try:
        outs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
        assert out.decode() == cold
    code, warm, err = _run(capsys, *args)
    assert code == 0
    assert warm == cold
    assert err == ""


def test_reports_are_deterministic(capsys):
    runs = [
        _run(capsys, "classify", "--type", "A3")[1] for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_each_subcommand_loads_only_its_layers():
    # one fresh interpreter per subcommand lists the coxcells modules
    # loaded after it ran
    script = (
        "import contextlib, io, json, sys\n"
        "from coxcells.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main([sys.argv[1], '--type', 'A3']) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('coxcells.'))))\n"
    )
    seen = {}
    for cmd in ("group", "cells", "chartable"):
        run = subprocess.run([sys.executable, "-c", script, cmd],
                             capture_output=True, env=_subprocess_env(),
                             timeout=120)
        assert run.returncode == 0, run.stderr.decode()
        seen[cmd] = json.loads(run.stdout)
    front = [f"coxcells.{m}" for m in ("cli", "coxeter", "errors", "modp",
                                       "pipeline")]
    assert seen["group"] == front
    assert seen["cells"] == sorted(front + ["coxcells.jring",
                                            "coxcells.klbase"])
    assert seen["chartable"] == sorted(front + ["coxcells.chartab",
                                                "coxcells.exactnum"])


@pytest.mark.parametrize("argv, warm, loaded", [
    (["classify", "--type", "A3"], False,
     ["coxcells.chartab", "coxcells.exactnum", "decimal", "fractions"]),
    (["cells", "--type", "A3", "--cache-dir", "{cache}"], False,
     ["_hashlib", "hashlib"]),
    (["group", "--type", "A3"], False, ["_hashlib", "hashlib"]),
    (["cells", "--type", "A3"], False, []),
    (["cells", "--type", "A3", "--cache-dir", "{cache}"], True,
     ["_hashlib", "hashlib"]),
], ids=["classify", "cells-cache", "group", "cells", "cells-warm"])
def test_standard_library_loads_only_what_runs(tmp_path, argv, warm, loaded):
    # -S keeps site's .pth imports out; classify without a cache takes no
    # digest and builds no dataclass, a cache run seals its file, neither
    # writes csv, and only the character table and the classification
    # load Fractions (fractions loads decimal) and the modules that use them
    script = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from coxcells.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    argv = [a.format(cache=tmp_path) for a in argv]
    for _ in range(1 + warm):
        # a warm run reads the cache file the run before it wrote
        run = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                             capture_output=True, env=_subprocess_env(),
                             timeout=120)
        assert run.returncode == 0, run.stderr.decode()
    added = set(json.loads(run.stdout))
    watched = {"hashlib", "_hashlib", "dataclasses", "inspect", "csv",
               "fractions", "decimal", "coxcells.exactnum", "coxcells.chartab"}
    assert sorted(added & watched) == loaded
