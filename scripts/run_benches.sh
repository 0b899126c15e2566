#!/usr/bin/env bash
# Runs every bench_* binary in the build tree and folds the results into one
# JSON file — the perf-trajectory baseline future PRs diff against.
#
# Usage:  scripts/run_benches.sh [BUILD_DIR] [OUTPUT_JSON]
#   BUILD_DIR    defaults to ./build
#   OUTPUT_JSON  defaults to BENCH_BASELINE.json in the repo root
#
# Report-style benches (their own main()) contribute their stdout verbatim;
# google-benchmark binaries (bench_micro_*) are run with
# --benchmark_format=json and contribute structured results.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_json="${2:-${repo_root}/BENCH_BASELINE.json}"
bench_dir="${build_dir}/bench"

if [[ ! -d "${bench_dir}" ]]; then
  echo "error: ${bench_dir} not found — configure with -DGUARDNN_BUILD_BENCHES=ON and build first" >&2
  exit 1
fi

shopt -s nullglob
benches=("${bench_dir}"/bench_*)
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "error: no bench_* binaries in ${bench_dir}" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

manifest="${workdir}/manifest.tsv"
: > "${manifest}"

for bin in "${benches[@]}"; do
  [[ -x "${bin}" && ! -d "${bin}" ]] || continue
  name="$(basename "${bin}")"
  echo "== ${name}"
  start=$(date +%s.%N)
  rc=0
  if [[ "${name}" == bench_micro_* ]]; then
    kind=gbench
    "${bin}" --benchmark_format=json >"${workdir}/${name}.out" 2>"${workdir}/${name}.err" || rc=$?
  else
    kind=report
    "${bin}" >"${workdir}/${name}.out" 2>"${workdir}/${name}.err" || rc=$?
  fi
  end=$(date +%s.%N)
  printf '%s\t%s\t%s\t%s\n' "${name}" "${kind}" "${rc}" \
    "$(awk -v a="${start}" -v b="${end}" 'BEGIN{printf "%.3f", b-a}')" >> "${manifest}"
done

python3 - "${manifest}" "${workdir}" "${out_json}" <<'PY'
import json, pathlib, subprocess, sys

manifest, workdir, out_json = sys.argv[1], pathlib.Path(sys.argv[2]), sys.argv[3]

def git(*args):
    try:
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    except Exception:
        return None

benches = {}
for line in pathlib.Path(manifest).read_text().splitlines():
    name, kind, rc, seconds = line.split("\t")
    entry = {"kind": kind, "exit_code": int(rc), "wall_seconds": float(seconds)}
    stdout = (workdir / f"{name}.out").read_text(errors="replace")
    stderr = (workdir / f"{name}.err").read_text(errors="replace")
    if kind == "gbench":
        try:
            entry["results"] = json.loads(stdout)
        except json.JSONDecodeError:
            entry["stdout"] = stdout
    else:
        entry["stdout"] = stdout
    if stderr.strip():
        entry["stderr"] = stderr
    benches[name] = entry

# A google-benchmark binary's results keyed by name, or None.
def gbench(bench_name):
    results = benches.get(bench_name, {}).get("results")
    if not isinstance(results, dict):
        return None
    return {r.get("name"): r for r in results.get("benchmarks", [])}

def micro_crypto():
    return gbench("bench_micro_crypto")

# Real time of one google-benchmark case in ms per call, or None.
TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

def ms(by_name, name, digits=4):
    r = by_name.get(name)
    if not r or r.get("time_unit") not in TO_MS:
        return None
    return round(r["real_time"] * TO_MS[r["time_unit"]], digits)

# Structured crypto throughput (GB/s) pulled out of bench_micro_crypto, so
# future PRs can diff crypto perf numerically instead of eyeballing stdout.
def crypto_throughput():
    by_name = micro_crypto()
    if by_name is None:
        return None
    results = benches["bench_micro_crypto"]["results"]

    def gbps(name):
        bps = by_name.get(name, {}).get("bytes_per_second")
        return round(bps / 1e9, 4) if bps is not None else None

    out = {
        "aes_block": gbps("BM_AesBlockEncrypt"),
        "aes_block_batch64": gbps("BM_AesEncryptBlocks/64"),
        "aes_ctr": gbps("BM_AesCtr/65536"),
        "memory_xcrypt": gbps("BM_MemoryXcrypt/65536"),
        "cmac_512b": gbps("BM_MemoryMac512B"),
        "cmac_lanes_512b": gbps("BM_MemoryMacLanes512B"),
        "cmac_lanes_64kib": gbps("BM_CmacMany64KiB"),
        "sha256": gbps("BM_Sha256/65536"),
    }
    for key in ("aes_backend", "sha256_backend"):
        backend = results.get("context", {}).get(key)
        if backend:
            out[key] = backend
    return out

# P-256 latencies (ms per operation) pulled out of bench_micro_crypto: the
# public-key work behind every connect, re-wrap and migrate.
def p256_ms():
    by_name = micro_crypto()
    if by_name is None:
        return None
    return {
        "ecdsa_sign": ms(by_name, "BM_EcdsaSign"),
        "ecdsa_verify": ms(by_name, "BM_EcdsaVerify"),
        "ecdh": ms(by_name, "BM_EcdhAgreement"),
        "base_mult": ms(by_name, "BM_P256BaseMult"),
        "scalar_mult": ms(by_name, "BM_P256ScalarMult"),
    }

# int8 kernel latencies (ms per call) pulled out of bench_micro_kernels: the
# device datapath's compute at the fleetbench model shapes, with the
# conv2d_direct oracle beside the GEMM path it checks.
def kernels_ms():
    by_name = gbench("bench_micro_kernels")
    if by_name is None:
        return None
    conv = "BM_Conv2d%s/in_c:%d/out_c:%d/hw:%d"
    fc = "BM_FullyConnected/in:%d/out:%d"
    return {
        "conv2d_gemm_3to4_8x8": ms(by_name, conv % ("Gemm", 3, 4, 8), 5),
        "conv2d_gemm_3to16_32x32": ms(by_name, conv % ("Gemm", 3, 16, 32), 5),
        "conv2d_gemm_16to16_32x32": ms(by_name, conv % ("Gemm", 16, 16, 32), 5),
        "conv2d_direct_16to16_32x32": ms(by_name, conv % ("Direct", 16, 16, 32), 5),
        "fully_connected_4096to64": ms(by_name, fc % (4096, 64), 5),
        "fully_connected_8192to1024": ms(by_name, fc % (8192, 1024), 5),
    }

# Structured results pulled out of a bench's ##GUARDNN_BENCH_JSON## marker
# line (the first one in its stdout).
def marker_json(bench_name):
    entry = benches.get(bench_name, {})
    for line in entry.get("stdout", "").splitlines():
        if not line.startswith("##GUARDNN_BENCH_JSON## "):
            continue
        try:
            return json.loads(line.split(" ", 1)[1])
        except json.JSONDecodeError:
            continue
    return None

# Sealed model store: SealModel/UnsealModel GB/s (the fused pipeline as the
# serving and checkpoint loops run it) and cross-device replication latency
# (p50/p99 of the attested 3-step re-wrap).
def model_store():
    return marker_json("bench_model_store")

doc = {
    "schema": "guardnn-bench-baseline/1",
    "git_commit": git("rev-parse", "HEAD"),
    "git_branch": git("rev-parse", "--abbrev-ref", "HEAD"),
    "bench_count": len(benches),
    "failed": sorted(n for n, e in benches.items() if e["exit_code"] != 0),
    "crypto_throughput_gbps": crypto_throughput(),
    "p256_ms": p256_ms(),
    "kernels_ms": kernels_ms(),
    "model_store": model_store(),
    "benches": benches,
}
pathlib.Path(out_json).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
print(f"wrote {out_json} ({len(benches)} benches, {len(doc['failed'])} failed)")
PY

# Non-zero exit when any bench failed, so CI can gate on it.
failed=$(awk -F'\t' '$3 != 0' "${manifest}" | wc -l)
if [[ "${failed}" -gt 0 ]]; then
  echo "warning: ${failed} bench(es) exited non-zero" >&2
  exit 1
fi
